package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/manifest"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/live"
)

// Run lengths in base instructions per core. harness scales them by the
// workload's MPKI class (x2 for mcf and lbm, x8 for xalanc), exactly as
// harness.Figure7 does.
const (
	silcInstr = 500_000
	fig7Instr = 150_000
)

// cell is one simulation of a workload: a harness.Spec plus the plane
// options the benchmark attaches itself.
type cell struct {
	id   string // "<scheme>/<workload>", the id harness sweeps publish under
	spec harness.Spec
	// observed attaches every optional plane: metrics JSONL, Perfetto
	// tracer and hotness profile to io.Discard, and a live registry hook.
	observed bool
}

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"silc-mcf", "silc-xalanc", "fig7-lbm", "silc-mcf-observed"}

// cellsFor returns the cells of one workload on machine base with its seed
// set. Every cell starts from empty caches and an empty NM, like any run.
func cellsFor(name string, base config.Machine, seed int64) ([]cell, error) {
	base.Seed = seed
	silc := func(wl string, observed bool) []cell {
		m := base
		m.Scheme = config.SchemeSILCFM
		return []cell{{
			id: string(m.Scheme) + "/" + wl,
			spec: harness.Spec{Machine: m, Workload: wl, InstrPerCore: silcInstr,
				ScaleInstrByClass: true},
			observed: observed,
		}}
	}
	switch name {
	case "silc-mcf":
		return silc("mcf", false), nil
	case "silc-xalanc":
		return silc("xalanc", false), nil
	case "silc-mcf-observed":
		return silc("mcf", true), nil
	case "fig7-lbm":
		return figure7Cells(base, "lbm", fig7Instr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// figure7Cells mirrors harness.Sweep's job list for Figure 7 on one
// workload: the no-NM baseline, then every scheme variant in plot order,
// each with the spec Sweep builds. Running the cells one at a time through
// harness.Run (instead of one harness.Figure7 call) keeps a failing or
// panicking cell from taking the others down with it; TestFigure7Cells
// checks that the two give the same simulations.
func figure7Cells(base config.Machine, wl string, instr uint64) []cell {
	spec := func(m config.Machine) harness.Spec {
		return harness.Spec{Machine: m, Workload: wl, InstrPerCore: instr, ScaleInstrByClass: true}
	}
	m := base
	m.Scheme = config.SchemeBaseline
	out := []cell{{id: "baseline/" + wl, spec: spec(m)}}
	for _, v := range harness.Figure7Variants() {
		m := base
		v.Mutate(&m)
		out = append(out, cell{id: v.Label + "/" + wl, spec: spec(m)})
	}
	return out
}

// cellResult is one cell's outcome in one repetition.
type cellResult struct {
	id     string
	res    *harness.Result
	err    error   // run error, panic, audit or conservation failure
	loopS  float64 // host seconds in the event loop
	epochs []float64
	digest digest
}

// digest identifies a cell's simulated outcome: the execution cycles and a
// hash of the manifest's sim section, which holds every deterministic
// counter the run produced.
type digest struct {
	Cell      string `json:"cell"`
	SimCycles uint64 `json:"sim_cycles"`
	SimSHA256 string `json:"sim_sha256"`
}

func simSection(id string, res *harness.Result) []byte {
	b, err := manifest.Canonical(manifest.FromResult(id, res).Sim)
	if err != nil {
		// Sim is plain data; an encode failure is a programming error.
		panic(err)
	}
	return b
}

func digestOf(id string, res *harness.Result) digest {
	sum := sha256.Sum256(simSection(id, res))
	return digest{Cell: id, SimCycles: res.Cycles, SimSHA256: hex.EncodeToString(sum[:])}
}

// finish classifies a completed cell: audit and conservation failures count
// as errors, and a successful run gets its digest and loop time.
func (r *cellResult) finish() {
	if r.err == nil && r.res.AuditErr != nil {
		r.err = fmt.Errorf("audit: %w", r.res.AuditErr)
	}
	if r.err == nil && r.res.ConservationErr != nil {
		r.err = fmt.Errorf("conservation: %w", r.res.ConservationErr)
	}
	if r.err == nil {
		r.digest = digestOf(r.id, r.res)
		r.loopS = stats.Ratio(float64(r.res.Cycles), r.res.SimCyclesPerSec)
	}
}

// runOptions varies an untraced repetition for the traced run's reference
// legs.
type runOptions struct {
	noFlightrec bool // the flight-recorder ablation leg
	stampEpochs bool // record host time at every telemetry epoch
}

// runCell runs one cell through harness.Run. A panic is reported as the
// cell's error instead of ending the process.
func runCell(c cell, opt runOptions) (r cellResult) {
	r.id = c.id
	spec := c.spec
	var tcfg telemetry.Config
	telemetryOn := c.observed || opt.stampEpochs
	if c.observed {
		tcfg.MetricsW, tcfg.TraceW, tcfg.ProfileW = io.Discard, io.Discard, io.Discard
		spec.Publish = live.NewRegistry().Hook(c.id)
	}
	if opt.stampEpochs {
		t0 := time.Now()
		tcfg.OnEpoch = func(telemetry.EpochState) {
			r.epochs = append(r.epochs, time.Since(t0).Seconds())
		}
	}
	if telemetryOn {
		spec.Telemetry = &tcfg
	}
	if opt.noFlightrec {
		spec.Flightrec = &flightrec.Config{Disabled: true}
	}
	defer func() {
		if p := recover(); p != nil {
			r.res, r.err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	r.res, r.err = harness.Run(spec)
	r.finish()
	r.epochs = epochDurations(r.epochs)
	return r
}

// epochDurations turns epoch-boundary timestamps into per-epoch host
// seconds. The last stamp is the end-of-run flush of a partial epoch and
// the first epoch has no start stamp, so both are left out.
func epochDurations(stamps []float64) []float64 {
	if len(stamps) < 3 {
		return nil
	}
	out := make([]float64, 0, len(stamps)-2)
	for i := 1; i < len(stamps)-1; i++ {
		out = append(out, stamps[i]-stamps[i-1])
	}
	return out
}

// goldens holds the committed digests: seed -> workload -> cells.
type goldens struct {
	HeldOutSeed int64                          `json:"held_out_seed"`
	Seeds       map[string]map[string][]digest `json:"seeds"`
}

//go:embed goldens.json
var goldenJSON []byte

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return &g, nil
}

// lookup returns the golden digests of a workload at a seed, or nil.
func (g *goldens) lookup(workload string, seed int64) []digest {
	return g.Seeds[strconv.FormatInt(seed, 10)][workload]
}

// checker decides whether each cell result is correct: no error, and a
// digest equal to the committed golden when one exists for the seed, else
// equal to the first repetition's (the simulator is deterministic).
type checker struct {
	want     map[string]digest
	golden   bool
	attempts int
	failures []string
}

func newChecker(g *goldens, workload string, seed int64) *checker {
	ch := &checker{want: map[string]digest{}}
	for _, d := range g.lookup(workload, seed) {
		ch.want[d.Cell] = d
		ch.golden = true
	}
	return ch
}

func (ch *checker) check(r *cellResult) bool {
	ch.attempts++
	fail := func(format string, a ...any) bool {
		ch.failures = append(ch.failures, r.id+": "+fmt.Sprintf(format, a...))
		return false
	}
	if r.err != nil {
		return fail("%v", r.err)
	}
	want, ok := ch.want[r.id]
	if !ok {
		if ch.golden {
			return fail("no golden digest")
		}
		ch.want[r.id] = r.digest
		return true
	}
	if r.digest != want {
		return fail("sim digest %d/%s, want %d/%s", r.digest.SimCycles, r.digest.SimSHA256[:12],
			want.SimCycles, want.SimSHA256[:12])
	}
	return true
}

// Golden digests are committed for the default seed and for a held-out seed
// that no tuning has looked at, for re-checking claims.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// writeGoldens runs every workload once at the default and the held-out
// seed and writes their digests to path.
func writeGoldens(path string, base config.Machine) error {
	g := goldens{HeldOutSeed: heldOutSeed, Seeds: map[string]map[string][]digest{}}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		per := map[string][]digest{}
		for _, name := range workloadNames {
			cells, err := cellsFor(name, base, seed)
			if err != nil {
				return err
			}
			for _, c := range cells {
				r := runCell(c, runOptions{})
				if r.err != nil {
					return fmt.Errorf("seed %d %s: %w", seed, c.id, r.err)
				}
				per[name] = append(per[name], r.digest)
				fmt.Fprintf(os.Stderr, "golden seed %d %s %s: %d cycles\n", seed, name, c.id, r.digest.SimCycles)
			}
		}
		g.Seeds[strconv.FormatInt(seed, 10)] = per
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

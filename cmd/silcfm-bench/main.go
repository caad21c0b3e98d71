// Command silcfm-bench runs the fixed laptop-scale regression suite across
// every scheme, emits a canonical run manifest (BENCH_PR<N>.json), and
// diffs two manifests into a regression verdict.
//
// Usage:
//
//	silcfm-bench -out BENCH_PR6.json -label PR6     # full suite
//	silcfm-bench -short -out /tmp/bench.json        # CI smoke subset
//	silcfm-bench -diff BENCH_PR5.json BENCH_PR6.json
//	silcfm-bench -diff -subset -noise 0 BENCH_PR4.json /tmp/bench.json
//	silcfm-bench -history 'BENCH_PR*.json'            # cross-PR trajectory
//	silcfm-bench -history -history-md TRAJECTORY.md BENCH_PR4.json BENCH_PR5.json BENCH_PR6.json
//
// (Flags precede the positional manifest paths, per Go flag convention.)
//
// In -diff mode deterministic simulation metrics (cycles, counters,
// histogram sums, energy) must match exactly — any difference exits
// non-zero as a correctness/behavior regression — while host-timing
// metrics (wall time, throughput, allocations) are compared within the
// -noise band (default ±10%; 0 skips them, for cross-machine diffs).
//
// In -history mode the positional arguments are an ordered list of
// manifest paths (globs expand in natural order), oldest first, and the
// output is a cross-PR trajectory report: per-cell metric curves aligned
// by config fingerprint, plus fleet-level geomean summaries. The report is
// a pure function of the input manifests, so a committed TRAJECTORY.md can
// be regenerated and diffed by CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/manifest"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry/live"
)

// The suite mirrors bench_test.go's benchExp configuration: 4 cores,
// NM 4 MiB / FM 16 MiB, footprints scaled 1/8, 250k base instructions per
// core — small enough that the full suite finishes in well under a minute,
// large enough that every scheme exercises its swap/lock/bypass machinery.
var (
	fullWorkloads  = []string{"milc", "mcf"}
	shortWorkloads = []string{"milc"}
)

func suiteMachine() config.Machine {
	m := config.Default()
	m.Cores = 4
	m.NM = config.HBM(4 << 20)
	m.FM = config.DDR3(16 << 20)
	return m
}

func allSchemes() []config.SchemeName {
	return append([]config.SchemeName{config.SchemeBaseline}, config.AllSchemes...)
}

func main() {
	var (
		out   = flag.String("out", "BENCH.json", "write the suite manifest to this file")
		label = flag.String("label", "", "manifest label (e.g. PR4)")
		short = flag.Bool("short", false, "run only the smoke subset of the suite (same per-cell config, fewer cells)")
		reps  = flag.Int("reps", 1, "testing.B-style reruns per cell; host timing keeps the fastest rep, allocation counts the fewest of any rep")
		instr = flag.Uint64("instr", 250_000, "base instructions per core (scaled by MPKI class)")
		seed  = flag.Int64("seed", 0, "random seed (0 = default)")
		quiet = flag.Bool("quiet", false, "suppress the per-cell progress and summary table")

		listen = flag.String("listen", "", live.ListenUsage)

		diff       = flag.Bool("diff", false, "diff mode: compare two manifests (old.json new.json)")
		noise      = flag.Float64("noise", 0.10, "relative noise band for host-timing metrics (0 skips them)")
		speedNoise = flag.Float64("speed-noise", 0, "diff mode: band for host.sim_cycles_per_sec, breaching only when slower (0 falls back to -noise)")
		allocNoise = flag.Float64("alloc-noise", 0, "diff mode: band for host.alloc_objects/bytes, breaching only when higher (0 falls back to -noise)")
		subset     = flag.Bool("subset", false, "diff mode: allow baseline entries the new manifest did not rerun")

		history   = flag.Bool("history", false, "history mode: build a cross-PR trajectory report from ordered manifest paths/globs")
		historyMD = flag.String("history-md", "", "history mode: write the markdown report here instead of stdout")
		historyJS = flag.String("history-out", "", "history mode: also write the trajectory as canonical JSON here")
	)
	flag.Parse()

	if *history {
		os.Exit(runHistory(flag.Args(), *historyMD, *historyJS))
	}
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "silcfm-bench: -diff needs exactly two manifest paths (old new)")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), manifest.DiffOptions{
			Noise:      *noise,
			SpeedNoise: *speedNoise,
			AllocNoise: *allocNoise,
			Subset:     *subset,
		}))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "silcfm-bench: unexpected arguments (did you mean -diff?):", flag.Args())
		os.Exit(2)
	}
	var srv *live.Server
	if *listen != "" {
		var err error
		if srv, err = live.New(*listen); err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "live:", srv.URL())
	}
	code := runSuite(*out, *label, *short, *reps, *instr, *seed, *quiet, srv)
	if srv != nil {
		srv.Close()
	}
	os.Exit(code)
}

func runSuite(out, label string, short bool, reps int, instr uint64, seed int64, quiet bool, srv *live.Server) int {
	if reps < 1 {
		reps = 1
	}
	workloads := fullWorkloads
	if short {
		workloads = shortWorkloads
	}
	m := manifest.New("silcfm-bench", label)
	tbl := &stats.Table{
		Title:   "silcfm-bench suite",
		Columns: []string{"entry", "cycles", "access-rate", "speedup", "wall s", "Mcyc/s", "allocs"},
	}

	// Cells run sequentially, one at a time, so wall time and throughput
	// measure the simulator rather than scheduler contention.
	baseline := map[string]uint64{} // workload -> baseline cycles
	for _, wl := range workloads {
		for _, scheme := range allSchemes() {
			mach := suiteMachine()
			mach.Scheme = scheme
			if seed != 0 {
				mach.Seed = seed
			}
			spec := harness.Spec{
				Machine:           mach,
				Workload:          wl,
				InstrPerCore:      instr,
				ScaleInstrByClass: true,
				FootScaleNum:      1,
				FootScaleDen:      8,
			}
			id := string(scheme) + "/" + wl
			e, r, err := runCell(id, spec, reps, srv)
			if err != nil {
				fmt.Fprintf(os.Stderr, "silcfm-bench: %s: %v\n", id, err)
				return 1
			}
			if !quiet {
				fmt.Fprintf(os.Stderr, "done %-12s %8d kcyc  %6.2fs wall\n",
					id, e.Sim.Cycles/1000, e.Host.WallSeconds)
			}
			if scheme == config.SchemeBaseline {
				baseline[wl] = r.Cycles
			}
			speedup := "-"
			if b := baseline[wl]; b > 0 && scheme != config.SchemeBaseline {
				speedup = stats.F2(r.Speedup(b))
			}
			tbl.AddRow(id, fmt.Sprint(e.Sim.Cycles), stats.F(r.Mem.AccessRate()), speedup,
				fmt.Sprintf("%.3f", e.Host.WallSeconds),
				fmt.Sprintf("%.1f", e.Host.SimCyclesPerSec/1e6),
				fmt.Sprint(e.Host.AllocObjects))
			m.Add(*e)
		}
	}

	if err := m.WriteFile(out); err != nil {
		fmt.Fprintln(os.Stderr, "silcfm-bench:", err)
		return 1
	}
	if !quiet {
		fmt.Println(tbl)
	}
	fmt.Printf("wrote %s (%d entries)\n", out, len(m.Entries))
	return 0
}

// runCell executes one suite cell reps times and keeps the fastest rep's
// host timing and the fewest allocations of any rep (see keepRep); the
// deterministic sim metrics are identical across reps by construction —
// that is the whole point of the manifest.
func runCell(id string, spec harness.Spec, reps int, srv *live.Server) (*manifest.Entry, *harness.Result, error) {
	var kept *manifest.Entry
	var keptRes *harness.Result
	for rep := 0; rep < reps; rep++ {
		// Each rep republishes under the same id: the hub shows the latest,
		// and done stamps the final incident list.
		done := harness.AttachLive(&spec, srv.Registry(), id)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := harness.Run(spec)
		runtime.ReadMemStats(&after)
		done(res)
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			return nil, nil, err
		}
		e := manifest.FromResult(id, res)
		e.Host.AllocObjects = after.Mallocs - before.Mallocs
		e.Host.AllocBytes = after.TotalAlloc - before.TotalAlloc
		e.Host.Reps = reps
		var fastest bool
		if kept, fastest = keepRep(kept, e); fastest {
			keptRes = res
		}
	}
	return kept, keptRes, nil
}

// keepRep folds one rep's entry e into the cell's kept entry (nil before
// the first rep) and reports whether e is the fastest rep so far. The kept
// entry is the fastest rep's, but with the fewest allocation objects and
// the fewest allocation bytes of any rep: the allocation counts are
// process-wide deltas, and a process's first run also pays one-time
// initialisation (about twice the objects of a later run of a small cell),
// while the fastest rep can be that first one.
func keepRep(kept *manifest.Entry, e manifest.Entry) (*manifest.Entry, bool) {
	if kept == nil {
		return &e, true
	}
	objects := min(kept.Host.AllocObjects, e.Host.AllocObjects)
	bytes := min(kept.Host.AllocBytes, e.Host.AllocBytes)
	faster := e.Host.WallSeconds < kept.Host.WallSeconds
	if faster {
		kept = &e
	}
	kept.Host.AllocObjects, kept.Host.AllocBytes = objects, bytes
	return kept, faster
}

// runHistory expands the ordered path/glob arguments and renders the
// trajectory report. Globs expand in natural order (embedded integers
// compared numerically, so PR10 follows PR9 rather than PR1); explicit
// paths keep their command-line order, so mixed usage stays predictable.
func runHistory(patterns []string, outMD, outJSON string) int {
	var paths []string
	for _, p := range patterns {
		matches, err := filepath.Glob(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "silcfm-bench: bad -history pattern %q: %v\n", p, err)
			return 2
		}
		if len(matches) == 0 {
			// Not a glob (or nothing matched): keep the literal path and let
			// LoadHistory report the missing file with its name.
			paths = append(paths, p)
			continue
		}
		manifest.NaturalSort(matches)
		paths = append(paths, matches...)
	}
	steps, err := manifest.LoadHistory(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcfm-bench:", err)
		return 2
	}
	t := manifest.BuildTrajectory(steps)
	md := t.Markdown()
	if outMD != "" {
		if err := os.WriteFile(outMD, []byte(md), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-bench:", err)
			return 2
		}
		fmt.Printf("wrote %s (%d steps, %d cells)\n", outMD, len(t.Steps), len(t.Cells))
	} else {
		fmt.Print(md)
	}
	if outJSON != "" {
		b, err := manifest.Canonical(t)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-bench:", err)
			return 2
		}
		if err := os.WriteFile(outJSON, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-bench:", err)
			return 2
		}
		fmt.Printf("wrote %s\n", outJSON)
	}
	return 0
}

func runDiff(oldPath, newPath string, opt manifest.DiffOptions) int {
	oldM, err := manifest.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcfm-bench:", err)
		return 2
	}
	newM, err := manifest.ReadFile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcfm-bench:", err)
		return 2
	}
	d, err := manifest.Compare(oldM, newM, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcfm-bench:", err)
		return 2
	}
	if len(d.Table.Rows) > 0 {
		fmt.Println(d.Table)
	}
	if len(d.Uncovered) > 0 && opt.Subset {
		fmt.Printf("note: %d baseline entries not rerun by %s (subset mode)\n", len(d.Uncovered), newPath)
	}
	fmt.Printf("%s -> %s\n%s\n", oldPath, newPath, d.Summary())
	if !d.OK() {
		return 1
	}
	return 0
}

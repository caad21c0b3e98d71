// Package harness assembles complete simulations — workload generators,
// virtual memory, the cache hierarchy, a memory-organization scheme and the
// two DRAM devices — runs them, and reduces the results into the rows of
// every table and figure in the paper's evaluation (§IV-V).
package harness

import (
	"fmt"
	"os"
	"strings"
	"time"

	"silcfm/internal/config"
	"silcfm/internal/core"
	"silcfm/internal/cpu"
	"silcfm/internal/dram"
	"silcfm/internal/energy"
	"silcfm/internal/flightrec"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/schemes"
	"silcfm/internal/shadow"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/telemetry/live"
	"silcfm/internal/vm"
	"silcfm/internal/workload"
)

// Spec describes one simulation.
type Spec struct {
	Machine      config.Machine
	Workload     string // Table III benchmark name
	InstrPerCore uint64 // rate-mode retirement target per core
	// ScaleInstrByClass multiplies InstrPerCore by the workload class's
	// InstrScale so every benchmark reaches comparable memory steady
	// state (see workload.MPKIClass.InstrScale).
	ScaleInstrByClass bool
	// FootScaleNum/Den scale workload footprints when the machine is
	// scaled (0 means 1).
	FootScaleNum, FootScaleDen int
	// TracePath, when set, replays a captured trace file (see
	// cmd/silcfm-trace) instead of the synthetic generator; Workload is
	// then only a label and FootScale*/ScaleInstrByClass are ignored.
	TracePath string
	// Mix, when set, runs a heterogeneous multiprogrammed mix: core i
	// runs benchmark Mix[i mod len(Mix)]. Workload is ignored. (The paper
	// evaluates homogeneous rate mode; mixes are an extension.)
	Mix []string
	// ShadowCheck runs the continuous shadow-data integrity checker
	// (internal/shadow) alongside the simulation: every demand access and
	// swap is verified against a token-level reference model. Costs
	// simulation speed; enable in tests, leave off in benchmarks.
	ShadowCheck bool
	// Telemetry, when non-nil, attaches the observability layer (epoch
	// metrics sampler, movement tracer, progress reporting — see
	// internal/telemetry). Telemetry is read-only: it never changes Cycles
	// or any counter.
	Telemetry *telemetry.Config
	// Out names the files the run writes (see Outputs); Run creates,
	// writes and closes them. Its metrics, trace and profile files replace
	// the matching Telemetry writers.
	Out Outputs
	// Publish, when set, is called once per telemetry epoch on the
	// simulation goroutine with that epoch's state and the health status:
	// the incidents currently open plus the open/close transitions since
	// the previous epoch. It is the hook the live observability hub
	// (internal/telemetry/live.Registry) attaches through. The Sample and
	// the health.Status slices may be kept; the rest of the referenced
	// state is valid only in the call.
	Publish func(telemetry.EpochState, health.Status)
	// Flightrec configures the incident flight recorder
	// (internal/flightrec). nil means enabled with defaults — every run
	// keeps a bounded ring of recent epochs and movement events and emits a
	// postmortem bundle per health incident; set Disabled to opt out. Like
	// telemetry and health, the recorder is read-only and provably inert.
	Flightrec *flightrec.Config
	// Exemplars configures the tail-latency exemplar recorder
	// (internal/telemetry/exemplar). nil means enabled with defaults —
	// every run keeps the worst-K demand accesses per service path with
	// their full span waterfalls; set Disabled to opt out. Like the other
	// observability layers, the recorder is read-only and provably inert.
	Exemplars *exemplar.Config
}

// Result is one completed simulation.
type Result struct {
	stats.Run
	Energy energy.Breakdown
	// AuditErr is non-nil when the end-of-run data-integrity audit failed.
	AuditErr error
	// ShadowErr is non-nil when the continuous shadow checker observed an
	// integrity violation (only set when Spec.ShadowCheck is enabled).
	ShadowErr error
	// Lat holds the per-path demand-completion latency histograms (see
	// stats.DemandPath); always populated.
	Lat *stats.PathLatencies
	// Attr holds the per-path latency attribution (span decomposition);
	// always populated, and its per-path sums equal Lat's by construction.
	Attr *stats.Attribution
	// ConservationErr is non-nil when the end-of-run counter-conservation
	// audit (stats.CheckConservation) found an invariant violation.
	ConservationErr error
	// Health holds the closed health incidents the online detector
	// observed, in deterministic order (nil when none fired).
	Health []health.Incident
	// Bundles holds the flight recorder's postmortem evidence bundles in
	// emission order (empty when no incident opened, nil when the recorder
	// was disabled). Deliberately absent from run manifests: bundles are
	// written to their own files.
	Bundles []flightrec.Bundle
	// Exemplars holds the tail-latency exemplar reservoirs at end of run,
	// grouped by path and worst-first (empty when no demand completed, nil
	// when the recorder was disabled). Manifests carry only the per-path
	// summary reduction; the full records go to -exemplars-out JSONL.
	Exemplars []exemplar.Exemplar
	// Profile is the hotness profiler, when Spec.Telemetry requested one.
	Profile *telemetry.Profiler
	// Spec is the effective spec this run executed (InstrPerCore defaulted,
	// Telemetry cleared, Out kept), for manifest fingerprinting and for
	// listing the run's output files.
	Spec Spec
	// WallSeconds is host wall-clock time of the whole run, setup and
	// audits included. Host-dependent: never compare exactly.
	WallSeconds float64
	// SimCyclesPerSec is simulated cycles per host second of the event
	// loop alone — the simulator's throughput figure of merit.
	SimCyclesPerSec float64
}

// Err is the run's audit verdict: the data-integrity audit failure, then
// the shadow-checker violation, then the counter-conservation failure,
// whichever comes first; nil when every audit passed.
func (r *Result) Err() error {
	switch {
	case r.AuditErr != nil:
		return fmt.Errorf("data-integrity audit failed: %w", r.AuditErr)
	case r.ShadowErr != nil:
		return fmt.Errorf("shadow integrity check failed: %w", r.ShadowErr)
	case r.ConservationErr != nil:
		return fmt.Errorf("counter-conservation audit failed: %w", r.ConservationErr)
	}
	return nil
}

// AttachLive attaches spec's run to the live observability hub reg under
// run id: every telemetry epoch publishes through Spec.Publish, the flight
// recorder streams each finalized bundle into the hub's incident store and
// the exemplar recorder each epoch's snapshot into its exemplar store (both
// skipped when the caller set Disabled). The returned callback marks the
// run done with its final incidents; call it once Run returns, with its
// Result (nil on error). A nil reg leaves spec untouched.
func AttachLive(spec *Spec, reg *live.Registry, id string) (done func(*Result)) {
	if reg == nil {
		return func(*Result) {}
	}
	spec.Publish = reg.Hook(id)
	// Bundles and exemplar snapshots are immutable once handed over, so
	// sharing them with the hub's goroutines is race-free.
	if spec.Flightrec == nil || !spec.Flightrec.Disabled {
		fcfg := flightrec.Config{}
		if spec.Flightrec != nil {
			fcfg = *spec.Flightrec
		}
		fcfg.OnBundle = func(b *flightrec.Bundle) { reg.AddBundle(id, b) }
		spec.Flightrec = &fcfg
	}
	if spec.Exemplars == nil || !spec.Exemplars.Disabled {
		ecfg := exemplar.Config{}
		if spec.Exemplars != nil {
			ecfg = *spec.Exemplars
		}
		ecfg.OnSnapshot = func(es []exemplar.Exemplar) { reg.SetExemplars(id, es) }
		spec.Exemplars = &ecfg
	}
	return func(res *Result) {
		var final []health.Incident
		if res != nil {
			final = res.Health
		}
		reg.Done(id, final)
	}
}

// placementFor returns the first-touch allocation policy each scheme
// assumes (§IV-A).
func placementFor(s config.SchemeName) vm.Policy {
	switch s {
	case config.SchemeBaseline, config.SchemeHMA:
		// No NM in the flat space (baseline) or NM reserved for the OS
		// migrator (HMA).
		return vm.PolicyFMFirst
	case config.SchemeRandom:
		return vm.PolicyRandom
	default:
		return vm.PolicyInterleaved
	}
}

// NewController constructs the scheme named by m.Scheme over sys through
// schemes.New. Most callers want Run; this is the assembly hook for custom
// drivers and benchmarks.
func NewController(m config.Machine, sys *mem.System) (mem.Controller, error) {
	return schemes.New(m, sys)
}

// Run executes one simulation to completion. It creates every file
// spec.Out names before the first cycle, writes them once the simulation
// completes, closes them, and returns the first error.
func Run(spec Spec) (res *Result, err error) {
	wallStart := time.Now()
	m := spec.Machine
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if spec.InstrPerCore == 0 {
		spec.InstrPerCore = 1 << 20
	}
	// The manifest spec is the declared run (workload-class scaling applies
	// to the per-core targets only), without the Telemetry pointer, which
	// must not outlive its writers.
	manifestSpec := spec
	manifestSpec.Telemetry = nil
	manifestSpec.Publish = nil
	manifestSpec.Flightrec = nil
	manifestSpec.Exemplars = nil

	gens := make([]workload.Generator, m.Cores)
	targets := make([]uint64, m.Cores)
	var needBytes uint64
	wlLabel := spec.Workload

	if spec.TracePath != "" {
		rp, err := loadTrace(spec.TracePath)
		if err != nil {
			return nil, err
		}
		if wlLabel == "" {
			wlLabel = rp.Name()
		}
		for i := range gens {
			gens[i] = rp.CloneAt(i, m.Cores)
			targets[i] = spec.InstrPerCore
		}
		needBytes = rp.FootprintBytes() * uint64(m.Cores)
	} else {
		// A single benchmark runs as a mix of one: core i runs
		// mix[i mod len(mix)].
		mix := []string{spec.Workload}
		if len(spec.Mix) > 0 {
			mix = spec.Mix
			wlLabel = "mix(" + strings.Join(mix, ",") + ")"
		}
		for i := range gens {
			params, ok := workload.Spec(mix[i%len(mix)])
			if !ok {
				return nil, fmt.Errorf("harness: unknown workload %q", mix[i%len(mix)])
			}
			if spec.FootScaleNum > 0 && spec.FootScaleDen > 0 {
				params = workload.ScaleFootprint(params, spec.FootScaleNum, spec.FootScaleDen)
			}
			gens[i] = workload.NewSynthetic(params, m.Seed+int64(i)*7919)
			targets[i] = spec.InstrPerCore
			if spec.ScaleInstrByClass {
				targets[i] *= params.Class.InstrScale()
			}
			needBytes += uint64(params.FootprintPages) * m.PageSize
		}
	}

	// Capacity check: rate mode must fit every instance.
	if total := m.TotalCapacity(); needBytes > total {
		return nil, fmt.Errorf("harness: %s footprint %d B exceeds capacity %d B",
			wlLabel, needBytes, total)
	}

	files, err := spec.Out.create()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := files.close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()

	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	ctl, err := NewController(m, sys)
	if err != nil {
		return nil, err
	}
	rawCtl := ctl

	nmBytes := m.NM.Capacity
	if m.Scheme == config.SchemeBaseline {
		nmBytes = 0
	}
	var chk *shadow.Checker
	if spec.ShadowCheck {
		chk = shadow.New(ctl, sys, nmBytes, m.FM.Capacity)
		ctl = chk
	}
	space := vm.NewAddressSpace(nmBytes, m.FM.Capacity, placementFor(m.Scheme), m.Seed)
	xlate := func(c int, va uint64) uint64 {
		return space.MustTranslate(vm.CoreVA(c, va))
	}

	// Telemetry attaches after the shadow checker, so the tracer sees each
	// movement only after the checker has validated it; gauges come from
	// the raw controller (the checker wrapper does not forward them).
	//
	// The health detector rides the telemetry epoch pump, measuring queue
	// saturation against each device's channels × (read+write queue
	// length).
	det := health.NewDetector(health.Config{
		QueueCapNM: m.NM.Channels * (m.NM.ReadQueueLen + m.NM.WriteQueueLen),
		QueueCapFM: m.FM.Channels * (m.FM.ReadQueueLen + m.FM.WriteQueueLen),
	})
	// The exemplar recorder attaches as an observer for demand
	// issue/completion events and the OnEpoch chain (below) for epoch
	// context. It is created before the flight recorder so incident
	// captures can freeze its reservoirs at open.
	ecfg := exemplar.Config{}
	if spec.Exemplars != nil {
		ecfg = *spec.Exemplars
	}
	exr := exemplar.New(ecfg, sys, rawCtl)
	if exr != nil {
		sys.AttachObserver(exr)
	}
	// The flight recorder attaches as an observer for movement events and
	// the OnEpoch chain (below) for epoch state + health status. It stamps
	// bundles with the same fingerprint the run manifest will carry.
	fcfg := flightrec.Config{}
	if spec.Flightrec != nil {
		fcfg = *spec.Flightrec
	}
	fcfg.Exemplars = exr.Snapshot // nil-safe; freezes the reservoirs at incident open
	rec := flightrec.New(fcfg, sys, manifestSpec.Fingerprint(), ctl.Name()+"/"+wlLabel)
	if rec != nil {
		sys.AttachObserver(rec)
	}
	// The telemetry config is copied so the wrapped OnEpoch (detector
	// feed, recorders, publisher, then the caller's own hook) never mutates
	// the caller's struct.
	tcfg := telemetry.Config{}
	if spec.Telemetry != nil {
		tcfg = *spec.Telemetry
	}
	files.attach(&tcfg, spec.Out.Metrics)
	userEpoch := tcfg.OnEpoch
	publish := spec.Publish
	// prevOpen carries the previous epoch's open set so every epoch reports
	// the incident transitions that happened at its boundary. OnEpoch runs
	// only on the simulation goroutine, so the closure state needs no lock.
	var prevOpen []health.Incident
	tcfg.OnEpoch = func(st telemetry.EpochState) {
		det.Observe(st.Sample)
		open := det.Open()
		opened, closed := health.DiffOpen(prevOpen, open)
		prevOpen = open
		hs := health.Status{Open: open, Opened: opened, Closed: closed}
		exr.Observe(st, hs)
		rec.Observe(st, hs)
		if publish != nil {
			publish(st, hs)
		}
		if userEpoch != nil {
			userEpoch(st)
		}
	}
	tel := telemetry.Attach(&tcfg, sys, rawCtl)

	cx := cpu.NewComplexTargets(m, eng, gens, xlate, ctl, targets)
	var targetTotal uint64
	for _, t := range targets {
		targetTotal += t
	}
	tel.SetProgress(func() (uint64, uint64) {
		var done uint64
		for _, c := range cx.Cores {
			done += c.Stats.Instructions
		}
		return done, targetTotal
	})
	cx.Start()
	tel.Start()
	loopStart := time.Now()
	eng.RunWhile(func() bool { return !cx.AllDone() })
	loopSeconds := time.Since(loopStart).Seconds()
	if !cx.AllDone() {
		return nil, fmt.Errorf("harness: simulation deadlocked at cycle %d", eng.Now())
	}
	// Inject exemplar span waterfalls into the movement trace before Finish
	// writes it: one track per path, the end-to-end span as the parent and
	// the attribution components nested sequentially beneath it.
	if tr := tel.Tracer(); tr != nil && exr != nil {
		injectExemplarSpans(tr, exr.Snapshot())
	}
	if err := tel.Finish(); err != nil {
		return nil, fmt.Errorf("harness: telemetry: %w", err)
	}

	res = &Result{}
	res.Health = det.Finish()
	// Finish after telemetry Finish (the final partial epoch is pumped) so
	// a capture still open at end of run flushes with the full window.
	res.Bundles = rec.Finish()
	res.Exemplars = exr.Finish()
	res.Spec = manifestSpec
	res.Workload = wlLabel
	res.Scheme = ctl.Name()
	res.Cycles = cx.ExecutionCycles()
	res.Mem = *sys.Totals()
	for _, c := range cx.Cores {
		res.Cores = append(res.Cores, c.Stats)
	}
	res.FootprintPages = space.PagesTouched()
	res.Lat = sys.Lat
	res.Attr = sys.Attr
	res.Profile = tel.Profiler()
	// SILC-FM's dedicated metadata channel contributes dynamic energy too,
	// and its traffic joins NM's side of the byte-conservation ledger.
	var extraNM []*dram.Device
	if sc, ok := rawCtl.(*core.Controller); ok {
		sys.Stats.ExtraEnergyPJ += sc.MetaDeviceStats().DynamicEnergyPJ
		extraNM = append(extraNM, sc.MetaDevice())
	}
	res.Energy = energy.Compute(m.NM, m.FM, sys.NM.Stats(), sys.FM.Stats(), sys.Stats, res.Cycles)
	res.EnergyNJ = res.Energy.TotalNJ()

	// Spot-check data integrity for every remapping scheme. The baseline's
	// flat space is FM alone.
	if m.Scheme == config.SchemeBaseline {
		res.AuditErr = mem.AuditSample(ctl, 0, m.FM.Capacity, 97)
	} else {
		res.AuditErr = mem.AuditSample(ctl, sys.NMCap, sys.FMCap, 97)
	}
	if chk != nil {
		res.ShadowErr = chk.Check()
	}
	// Counter-conservation audit. The engine may still hold scheduled
	// background work (telemetry pump, deferred writebacks), so the tolerant
	// (non-quiesced) invariants apply here; the stress driver runs the
	// strict quiesced form after a full drain.
	res.ConservationErr = stats.CheckConservation(sys.Conservation(false, extraNM...))
	res.WallSeconds = time.Since(wallStart).Seconds()
	res.SimCyclesPerSec = stats.Ratio(float64(res.Cycles), loopSeconds)
	if err := files.write(res); err != nil {
		return nil, err
	}
	return res, nil
}

// injectExemplarSpans lays each exemplar's span waterfall into the trace:
// a parent duration span covering the whole access on an "exemplar:<path>"
// track, with the nonzero attribution components nested sequentially
// beneath it (Chrome complete events on one track nest by containment).
// The sequential layout is a presentation of the decomposition, not a
// claim that the components were serialized; their sum equals the parent
// duration exactly.
func injectExemplarSpans(tr *telemetry.Tracer, es []exemplar.Exemplar) {
	for i := range es {
		e := &es[i]
		track := "exemplar:" + e.Path
		op := "read"
		if e.Write {
			op = "write"
		}
		tr.AddSpan(track, fmt.Sprintf("pa=0x%x", e.PAddr), e.StartCycle, e.Latency,
			map[string]any{"op": op, "core": e.Core, "block": e.Block, "lat": e.Latency, "seq": e.Seq})
		off := e.StartCycle
		for _, sp := range e.Spans {
			if sp.Cycles == 0 {
				continue
			}
			tr.AddSpan(track, sp.Span, off, sp.Cycles, nil)
			off += sp.Cycles
		}
	}
}

// loadTrace reads a trace file into a Replay generator.
func loadTrace(path string) (*workload.Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	defer f.Close()
	rp, err := workload.LoadReplay(f)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return rp, nil
}

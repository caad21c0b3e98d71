package main

import (
	"fmt"
	"io"
	"time"

	"silcfm/internal/cache"
	"silcfm/internal/config"
	"silcfm/internal/core"
	"silcfm/internal/cpu"
	"silcfm/internal/dram"
	"silcfm/internal/energy"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/telemetry/live"
	"silcfm/internal/vm"
	"silcfm/internal/workload"
)

// ref is one (core, physical address, write) reference captured at the
// translate wrapper for the cache replay.
type ref struct {
	pa    uint64
	core  int32
	write bool
}

// layerSpans are the host-time spans of one traced cell, one per wrapped
// layer boundary.
type layerSpans struct {
	next, translate, handle                                 span
	flightrec, exemplar, health, tracer, profiler, liveHook span
}

// tracedCell is one cell of the traced run: the result (checked exactly
// like an untraced one) plus its layer spans and phase timings.
type tracedCell struct {
	cellResult
	spans layerSpans
	// host seconds of the assembly and teardown phases
	dramBuildS, schemeBuildS, harnessBuildS, finishS, auditS float64
	// residualS is the loop time no wrapped span covers
	residualS float64
	// cacheNS is host ns per reference replaying the captured stream
	cacheNS float64
	refs    []ref
}

// traceOptions configures runTraced.
type traceOptions struct {
	cal      calibration
	captureN int // references captured for the cache replay
	// inject, when set, runs on the System right after it is built (tests
	// use it to seed a fault).
	inject func(*mem.System)
}

// placementFor mirrors harness's first-touch policy per scheme (§IV-A).
func placementFor(s config.SchemeName) vm.Policy {
	switch s {
	case config.SchemeBaseline, config.SchemeHMA:
		return vm.PolicyFMFirst
	case config.SchemeRandom:
		return vm.PolicyRandom
	default:
		return vm.PolicyInterleaved
	}
}

// runTraced runs one cell by mirroring harness.Run's assembly with the
// public constructors, with a timing wrapper at every layer boundary: the
// generators, the translate function, the controller, each plane's
// observer and its epoch hook. Planes receive the raw controller, wrappers
// forward every optional interface, and observers attach in harness.Run's
// order, so the sim section equals harness.Run's byte for byte.
func runTraced(c cell, opt traceOptions) (t tracedCell) {
	t.id = c.id
	defer func() {
		if p := recover(); p != nil {
			t.res, t.err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	t.res, t.err = t.simulate(c, opt)
	t.finish()
	if t.err == nil && len(t.refs) > 0 {
		t.cacheNS = replayCache(c.spec.Machine, t.refs)
	}
	t.refs = nil
	return t
}

func (t *tracedCell) simulate(c cell, opt traceOptions) (*harness.Result, error) {
	wallStart := time.Now()
	clk := newSpanClock(opt.cal)
	sp := &t.spans
	sp.handle.hist = &nsHist{}
	spec := c.spec
	m := spec.Machine
	if err := m.Validate(); err != nil {
		return nil, err
	}
	manifestSpec := spec
	params, ok := workload.Spec(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if spec.FootScaleNum > 0 && spec.FootScaleDen > 0 {
		params = workload.ScaleFootprint(params, spec.FootScaleNum, spec.FootScaleDen)
	}
	if spec.ScaleInstrByClass {
		spec.InstrPerCore *= params.Class.InstrScale()
	}
	gens := make([]workload.Generator, m.Cores)
	targets := make([]uint64, m.Cores)
	lastWrite := make([]bool, m.Cores)
	for i := range gens {
		g := workload.NewSynthetic(params, m.Seed+int64(i)*7919)
		gens[i] = &timedGen{Generator: g, clk: clk, s: &sp.next, lastWrite: &lastWrite[i]}
		targets[i] = spec.InstrPerCore
	}
	needBytes := uint64(params.FootprintPages) * m.PageSize * uint64(m.Cores)
	if total := m.TotalCapacity(); needBytes > total {
		return nil, fmt.Errorf("%s footprint %d B exceeds capacity %d B", spec.Workload, needBytes, total)
	}

	eng := sim.NewEngine()
	t0 := time.Now()
	sys := mem.NewSystem(m, eng)
	t.dramBuildS = time.Since(t0).Seconds()
	if opt.inject != nil {
		opt.inject(sys)
	}
	t0 = time.Now()
	rawCtl, err := harness.NewController(m, sys)
	t.schemeBuildS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	ctl := wrapController(rawCtl, clk, &sp.handle)

	nmBytes := m.NM.Capacity
	if m.Scheme == config.SchemeBaseline {
		nmBytes = 0
	}
	space := vm.NewAddressSpace(nmBytes, m.FM.Capacity, placementFor(m.Scheme), m.Seed)
	t.refs = make([]ref, 0, opt.captureN)
	xlate := func(core int, va uint64) uint64 {
		s := clk.enter()
		pa := space.MustTranslate(vm.CoreVA(core, va))
		clk.exit(&sp.translate, s)
		if len(t.refs) < cap(t.refs) {
			t.refs = append(t.refs, ref{pa: pa, core: int32(core), write: lastWrite[core]})
		}
		return pa
	}

	det := health.NewDetector(health.Config{
		QueueCapNM: m.NM.Channels * (m.NM.ReadQueueLen + m.NM.WriteQueueLen),
		QueueCapFM: m.FM.Channels * (m.FM.ReadQueueLen + m.FM.WriteQueueLen),
	})
	exr := exemplar.New(exemplar.Config{}, sys, rawCtl)
	sys.AttachObserver(wrapObserver(exr, clk, &sp.exemplar))
	rec := flightrec.New(flightrec.Config{Exemplars: exr.Snapshot}, sys,
		manifestSpec.Fingerprint(), rawCtl.Name()+"/"+spec.Workload)
	sys.AttachObserver(wrapObserver(rec, clk, &sp.flightrec))

	var tcfg telemetry.Config
	var publish func(telemetry.EpochState, health.Status)
	if c.observed {
		tcfg.MetricsW = io.Discard
		publish = live.NewRegistry().Hook(c.id)
	}
	var prevOpen []health.Incident
	tcfg.OnEpoch = func(st telemetry.EpochState) {
		s := clk.enter()
		det.Observe(st.Sample)
		open := det.Open()
		opened, closed := health.DiffOpen(prevOpen, open)
		prevOpen = open
		hs := health.Status{Open: open, Opened: opened, Closed: closed}
		clk.exit(&sp.health, s)
		s = clk.enter()
		exr.Observe(st, hs)
		clk.exit(&sp.exemplar, s)
		s = clk.enter()
		rec.Observe(st, hs)
		clk.exit(&sp.flightrec, s)
		if publish != nil {
			s = clk.enter()
			publish(st, hs)
			clk.exit(&sp.liveHook, s)
		}
	}
	tel := telemetry.Attach(&tcfg, sys, rawCtl)
	// harness.Run lets telemetry.Attach build the tracer and profiler; here
	// they are built the same way and attached wrapped, in the same order.
	var tr *telemetry.Tracer
	var prof *telemetry.Profiler
	if c.observed {
		tr = telemetry.NewTracer(eng, telemetry.DefaultTraceLimit)
		sys.AttachObserver(wrapObserver(tr, clk, &sp.tracer))
		prof = telemetry.NewProfiler(sys, 0)
		sys.AttachObserver(wrapObserver(prof, clk, &sp.profiler))
	}

	cx := cpu.NewComplexTargets(m, eng, gens, xlate, ctl, targets)
	var targetTotal uint64
	for _, v := range targets {
		targetTotal += v
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
	t.harnessBuildS = time.Since(wallStart).Seconds() - t.dramBuildS - t.schemeBuildS

	loopStart := time.Now()
	eng.RunWhile(func() bool { return !cx.AllDone() })
	t.loopS = time.Since(loopStart).Seconds()
	if !cx.AllDone() {
		return nil, fmt.Errorf("simulation deadlocked at cycle %d", eng.Now())
	}
	wrapped := 0.0
	for _, s := range []*span{&sp.next, &sp.translate, &sp.handle, &sp.flightrec, &sp.exemplar,
		&sp.health, &sp.tracer, &sp.profiler, &sp.liveHook} {
		wrapped += s.seconds()
	}
	t.residualS = t.loopS - wrapped - clk.overheadSeconds()

	t0 = time.Now()
	if tr != nil {
		injectExemplarSpans(tr, exr.Snapshot())
	}
	err = tel.Finish()
	if err == nil && tr != nil {
		err = tr.Write(io.Discard)
	}
	if err == nil && prof != nil {
		err = prof.WriteJSONL(io.Discard)
	}
	t.finishS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}

	t0 = time.Now()
	res := &harness.Result{}
	res.Health = det.Finish()
	res.Bundles = rec.Finish()
	res.Exemplars = exr.Finish()
	res.Spec = manifestSpec
	res.Workload = spec.Workload
	res.Scheme = ctl.Name()
	res.Cycles = cx.ExecutionCycles()
	res.Mem = *sys.Stats
	res.Mem.RowHits = [2]uint64{sys.NM.Stats().RowHits, sys.FM.Stats().RowHits}
	res.Mem.RowMisses = [2]uint64{sys.NM.Stats().RowMisses, sys.FM.Stats().RowMisses}
	for lv, dev := range [2]*dram.Device{sys.NM, sys.FM} {
		bt := dev.TotalBankCounters()
		ct := dev.TotalChannelCounters()
		res.Mem.RowConflicts[lv] = bt.RowConflicts
		res.Mem.RefreshCloses[lv] = bt.RefreshCloses
		res.Mem.BankBusyCycles[lv] = bt.BusyCycles
		res.Mem.BusBusyCycles[lv] = ct.BusBusyCycles
		res.Mem.ReadQueueWaitCycles[lv] = ct.ReadQueueWait
		res.Mem.WriteQueueWaitCycles[lv] = ct.WriteQueueWait
	}
	for _, c := range cx.Cores {
		res.Cores = append(res.Cores, c.Stats)
	}
	res.FootprintPages = space.PagesTouched()
	res.Lat = sys.Lat
	res.Attr = sys.Attr
	res.Profile = prof
	var extraNM []*dram.Device
	if sc, ok := rawCtl.(*core.Controller); ok {
		sys.Stats.ExtraEnergyPJ += sc.MetaDeviceStats().DynamicEnergyPJ
		extraNM = append(extraNM, sc.MetaDevice())
	}
	res.Energy = energy.Compute(m.NM, m.FM, sys.NM.Stats(), sys.FM.Stats(), sys.Stats, res.Cycles)
	res.EnergyNJ = res.Energy.TotalNJ()
	if m.Scheme == config.SchemeBaseline {
		res.AuditErr = mem.AuditSample(ctl, 0, m.FM.Capacity, 97)
	} else {
		res.AuditErr = mem.AuditSample(ctl, sys.NMCap, sys.FMCap, 97)
	}
	res.ConservationErr = stats.CheckConservation(sys.Conservation(false, extraNM...))
	t.auditS = time.Since(t0).Seconds()
	res.WallSeconds = time.Since(wallStart).Seconds()
	res.SimCyclesPerSec = stats.Ratio(float64(res.Cycles), t.loopS)
	return res, nil
}

// injectExemplarSpans mirrors harness's exemplar waterfall injection into
// the movement trace, so the observed cell's tracer writes the same trace.
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
		for _, s := range e.Spans {
			if s.Cycles == 0 {
				continue
			}
			tr.AddSpan(track, s.Span, off, s.Cycles, nil)
			off += s.Cycles
		}
	}
}

// replayCache replays the captured reference stream through fresh cache
// hierarchies of machine m (empty, like the run's) and returns the median
// host ns per reference over three replays.
func replayCache(m config.Machine, refs []ref) float64 {
	per := make([]float64, 3)
	for i := range per {
		h := cache.NewHierarchy(m.Cores, m.L1D, m.L2)
		t0 := time.Now()
		for _, r := range refs {
			h.Access(int(r.core), r.pa, r.write)
		}
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(len(refs))
	}
	return median(per)
}

package main

import (
	"bytes"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
)

// smallCells is the Figure 7 cell set plus an observed SILC-FM cell on
// config.Small(), with footprints scaled to fit its 16 MiB of FM.
func smallCells(t *testing.T, instr uint64) []cell {
	t.Helper()
	cells := figure7Cells(config.Small(), "lbm", instr)
	obs := cells[len(cells)-1]
	obs.id += "+observed"
	obs.observed = true
	cells = append(cells, obs)
	for i := range cells {
		cells[i].spec.FootScaleNum, cells[i].spec.FootScaleDen = 1, 32
	}
	return cells
}

func TestTracedRunMatchesHarnessRun(t *testing.T) {
	cal := calibrate()
	for _, c := range smallCells(t, 20_000) {
		plain := runCell(c, runOptions{})
		if plain.err != nil {
			t.Fatalf("%s: harness.Run: %v", c.id, plain.err)
		}
		traced := runTraced(c, traceOptions{cal: cal, captureN: 1000})
		if traced.err != nil {
			t.Fatalf("%s: traced: %v", c.id, traced.err)
		}
		want, got := simSection(c.id, plain.res), simSection(c.id, traced.res)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: traced sim section differs from harness.Run's:\n%s\nwant:\n%s", c.id, got, want)
		}
		if plain.res.Cycles != traced.res.Cycles || plain.res.Mem != traced.res.Mem {
			t.Errorf("%s: cycles/counters differ: %d vs %d", c.id, traced.res.Cycles, plain.res.Cycles)
		}
		sp := traced.spans
		if sp.next.calls == 0 || sp.translate.calls != sp.next.calls || sp.handle.calls == 0 {
			t.Errorf("%s: spans not recorded: next %d translate %d handle %d",
				c.id, sp.next.calls, sp.translate.calls, sp.handle.calls)
		}
		if c.observed != (sp.tracer.calls > 0 && sp.profiler.calls > 0 && sp.liveHook.calls > 0) {
			t.Errorf("%s: observed=%v but tracer/profiler/live calls %d/%d/%d",
				c.id, c.observed, sp.tracer.calls, sp.profiler.calls, sp.liveHook.calls)
		}
		if traced.cacheNS <= 0 {
			t.Errorf("%s: no cache replay time", c.id)
		}
	}
}

func TestFigure7CellsMatchFigure7(t *testing.T) {
	m := config.Small()
	sw, _, err := harness.Figure7(harness.ExpConfig{Machine: m, InstrPerCore: 20_000,
		Workloads: []string{"lbm"}, FootScaleNum: 1, FootScaleDen: 32, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cells := figure7Cells(m, "lbm", 20_000)
	if len(cells) != 1+len(sw.Variants) {
		t.Fatalf("%d cells, Figure 7 has %d runs", len(cells), 1+len(sw.Variants))
	}
	for i, c := range cells {
		c.spec.FootScaleNum, c.spec.FootScaleDen = 1, 32
		want := sw.Baseline["lbm"]
		if i > 0 {
			want = sw.Runs[sw.Variants[i-1].Label]["lbm"]
		}
		got := runCell(c, runOptions{})
		if got.err != nil {
			t.Fatalf("%s: %v", c.id, got.err)
		}
		if !bytes.Equal(simSection(c.id, got.res), simSection(c.id, want)) {
			t.Errorf("%s: sim section differs from harness.Figure7's", c.id)
		}
	}
}

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		pct  float64
		rank uint64
	}{
		{0, 50, 0},
		{10, 50, 5},     // the median has 5 beyond it: fall back to the median
		{19, 50, 10},    // 9 beyond the median: still the fallback
		{20, 50, 10},    // exactly 10 beyond the median
		{99, 50, 50},    // p90 would leave only 9 beyond it
		{100, 90, 90},   // p90 leaves exactly 10 beyond it
		{999, 90, 900},  // p99 would leave 9
		{1000, 99, 990}, // p99 leaves exactly 10
		{1001, 99, 991}, // ceil(0.99*1001) = 991
		{10000, 99.9, 9990},
	} {
		pct, rank := tailRank(tc.n)
		if pct != tc.pct || rank != tc.rank {
			t.Errorf("tailRank(%d) = p%v rank %d, want p%v rank %d", tc.n, pct, rank, tc.pct, tc.rank)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	if _, rank := tailRank(100); nearestRank(xs, rank) != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", nearestRank(xs, rank))
	}
}

func TestNsHist(t *testing.T) {
	var h nsHist
	for v := int64(1); v <= 1000; v++ {
		h.add(v)
	}
	for _, tc := range []struct{ rank, want uint64 }{{1, 1}, {15, 15}, {500, 500}, {1000, 1000}} {
		got := h.at(tc.rank)
		if d := got - float64(tc.want); d < -0.125*float64(tc.want) || d > 0.125*float64(tc.want) {
			t.Errorf("rank %d = %v, want %d within 12.5%%", tc.rank, got, tc.want)
		}
	}
}

func TestFaultedCellFailsOthersReport(t *testing.T) {
	cells := smallCells(t, 200_000)
	ch := &checker{want: map[string]digest{}}
	for _, c := range cells {
		r := runCell(c, runOptions{})
		if !ch.check(&r) {
			t.Fatalf("clean %s failed: %v", c.id, ch.failures)
		}
	}
	ch.golden = true // the clean digests now act as goldens
	cal := calibrate()
	reported := 0
	for _, c := range cells {
		opt := traceOptions{cal: cal}
		faulted := c.id == "silc/lbm"
		if faulted {
			opt.inject = func(s *mem.System) { s.FaultInjectSwapOrder = true }
		}
		tc := runTraced(c, opt)
		if ok := ch.check(&tc.cellResult); ok == faulted {
			t.Errorf("%s: check = %v with fault injected = %v (%v)", c.id, ok, faulted, ch.failures)
		}
		if tc.res != nil {
			reported++
		}
	}
	if len(ch.failures) != 1 || reported != len(cells) {
		t.Errorf("failures %v, %d of %d cells reported", ch.failures, reported, len(cells))
	}
}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	m := config.Small()
	for _, s := range append([]config.SchemeName{config.SchemeBaseline}, config.AllSchemes...) {
		m.Scheme = s
		sys := mem.NewSystem(m, sim.NewEngine())
		raw, err := harness.NewController(m, sys)
		if err != nil {
			t.Fatal(err)
		}
		w := wrapController(raw, newSpanClock(calibration{}), &span{})
		_, rg := raw.(mem.GaugeProvider)
		_, wg := w.(mem.GaugeProvider)
		_, rl := raw.(mem.LockProbe)
		_, wl := w.(mem.LockProbe)
		if rg != wg || rl != wl || w.Name() != raw.Name() {
			t.Errorf("%s: gauge %v/%v lock %v/%v name %q/%q", s, rg, wg, rl, wl, w.Name(), raw.Name())
		}
	}
	sys := mem.NewSystem(m, sim.NewEngine())
	for _, o := range []mem.Observer{
		exemplar.New(exemplar.Config{}, sys, nil),
		flightrec.New(flightrec.Config{}, sys, "", ""),
		telemetry.NewTracer(nil, 16),
		telemetry.NewProfiler(sys, 0),
	} {
		w := wrapObserver(o, newSpanClock(calibration{}), &span{})
		_, rs := o.(mem.SchemeObserver)
		_, ws := w.(mem.SchemeObserver)
		_, rd := o.(mem.DemandObserver)
		_, wd := w.(mem.DemandObserver)
		_, ri := o.(mem.DemandIssueObserver)
		_, wi := w.(mem.DemandIssueObserver)
		if rs != ws || rd != wd || ri != wi {
			t.Errorf("%T: scheme %v/%v demand %v/%v issue %v/%v", o, rs, ws, rd, wd, ri, wi)
		}
	}
}

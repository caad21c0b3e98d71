package silcfm

// One benchmark per table/figure of the paper's evaluation (§IV-V), plus
// ablation benches for SILC-FM's design choices. Each bench runs a
// laptop-scale version of the experiment (4 cores, NM 4 MiB / FM 16 MiB,
// footprints scaled 1/8) and reports the headline metric of that figure
// via b.ReportMetric; cmd/silcfm-experiments regenerates the full-scale
// versions recorded in EXPERIMENTS.md.

import (
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/dram"
	"silcfm/internal/harness"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
)

// benchExp is the shared laptop-scale experiment configuration.
func benchExp(workloads ...string) ExperimentOptions {
	return ExperimentOptions{
		InstrPerCore:      250_000,
		Workloads:         workloads,
		Cores:             4,
		NMCapacity:        4 << 20,
		FMCapacity:        16 << 20,
		FootprintScaleDen: 8,
		Parallelism:       2,
	}
}

// BenchmarkTableISwapOps drives the six swap scenarios of Table I through
// the SILC-FM controller as fast as the functional model allows.
func BenchmarkTableISwapOps(b *testing.B) {
	m := config.Small()
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	ctl, err := harness.NewController(m, sys)
	if err != nil {
		b.Fatal(err)
	}
	nmCap := m.NM.Capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate NM- and FM-space addresses over a few congruence sets
		// so all Table I rows occur.
		var pa uint64
		if i&1 == 0 {
			pa = uint64(i%64) * 2048
		} else {
			pa = nmCap + uint64(i%256)*2048 + uint64(i%32)*64
		}
		ctl.Handle(&mem.Access{PC: uint64(i % 16), PAddr: pa})
		if i%512 == 0 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkTableIIPeakBandwidth saturates both devices with streaming reads
// and reports the achieved NM:FM bandwidth ratio (Table II: 4.0).
func BenchmarkTableIIPeakBandwidth(b *testing.B) {
	measure := func(cfg config.DRAMConfig) float64 {
		eng := sim.NewEngine()
		sys := mem.NewSystem(config.Machine{NM: cfg, FM: cfg}, eng)
		dev := sys.NM
		n := 20000
		for i := 0; i < n; i++ {
			dev.Submit(dram.Request{Addr: uint64(i) * 64, Bytes: 64})
		}
		eng.Run()
		return float64(n*64) / float64(eng.Now()) // bytes per CPU cycle
	}
	var nmBPC, fmBPC float64
	for i := 0; i < b.N; i++ {
		nmBPC = measure(config.HBM(64 << 20))
		fmBPC = measure(config.DDR3(64 << 20))
	}
	b.ReportMetric(nmBPC/fmBPC, "NM:FM-ratio")
	b.ReportMetric(nmBPC*float64(config.CPUFreqMHz)*1e6/1e9, "NM-GB/s")
	b.ReportMetric(fmBPC*float64(config.CPUFreqMHz)*1e6/1e9, "FM-GB/s")
}

// BenchmarkTableIIIWorkloads measures every workload's MPKI and footprint
// through the cache hierarchy (Table III).
func BenchmarkTableIIIWorkloads(b *testing.B) {
	var tbl *Table
	var err error
	for i := 0; i < b.N; i++ {
		o := benchExp()
		o.InstrPerCore = 100_000 // all 14 workloads; keep the sweep tractable
		tbl, err = TableIII(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tbl.String())
}

// BenchmarkFigure6Breakdown regenerates the feature-breakdown figure and
// reports the total geomean improvement of full SILC-FM over static random
// placement (paper: +82%).
func BenchmarkFigure6Breakdown(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		f, err := harness.RunFigures(benchExp("milc", "gems", "mcf", "xalanc").expConfig(), "fig6")
		if err != nil {
			b.Fatal(err)
		}
		f6 := f.Fig6
		tbl = f.Figure6()
		if r := f6.GeoMeanSpeedup("rand"); r > 0 {
			b.ReportMetric(f6.GeoMeanSpeedup("+bypass")/r-1, "total-over-static")
		}
	}
	b.Log("\n" + tbl.String())
}

// BenchmarkFigure7Schemes regenerates the scheme comparison and reports
// SILC-FM's geomean advantage over the best alternative (paper: +36% over
// CAMEO).
func BenchmarkFigure7Schemes(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		sw, t, err := harness.Figure7(benchExp("milc", "lbm", "mcf", "dealII").expConfig())
		if err != nil {
			b.Fatal(err)
		}
		tbl = t
		silc := sw.GeoMeanSpeedup("silc")
		best := 0.0
		for _, v := range harness.Figure7Variants() {
			if v.Label != "silc" {
				if g := sw.GeoMeanSpeedup(v.Label); g > best {
					best = g
				}
			}
		}
		if best > 0 {
			b.ReportMetric(silc/best-1, "over-best-alt")
		}
	}
	b.Log("\n" + tbl.String())
}

// BenchmarkFigure8BandwidthSplit regenerates the demand-bandwidth split and
// reports SILC-FM's mean NM fraction (paper: 0.76, ideal 0.80).
func BenchmarkFigure8BandwidthSplit(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		sw, _, err := harness.Figure7(benchExp("milc", "lbm").expConfig())
		if err != nil {
			b.Fatal(err)
		}
		tbl = harness.Figure8(sw)
		s := 0.0
		for _, wl := range []string{"milc", "lbm"} {
			s += sw.Runs["silc"][wl].Mem.DemandNMFraction()
		}
		b.ReportMetric(s/2, "silc-NM-fraction")
	}
	b.Log("\n" + tbl.String())
}

// BenchmarkFigure9Capacity sweeps the NM:FM ratio (paper Figure 9) and
// reports SILC-FM's geomean at the smallest (1/16) capacity.
func BenchmarkFigure9Capacity(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		f, err := harness.RunFigures(benchExp("milc", "lbm").expConfig(), "fig9")
		if err != nil {
			b.Fatal(err)
		}
		sweeps := f.Fig9
		tbl = f.Figure9()
		// sweeps run at NM = FM/16, FM/8, FM/4 in that order.
		b.ReportMetric(sweeps[0].GeoMeanSpeedup("silc"), "silc-geomean-1/16")
		b.ReportMetric(sweeps[2].GeoMeanSpeedup("silc"), "silc-geomean-1/4")
	}
	b.Log("\n" + tbl.String())
}

// BenchmarkHeadlineNumbers derives the abstract's numbers from Figure 6+7
// sweeps (paper: +82% over static, +36% over CAMEO, 13% EDP reduction).
func BenchmarkHeadlineNumbers(b *testing.B) {
	var h *Headline
	var err error
	for i := 0; i < b.N; i++ {
		h, err = ComputeHeadline(benchExp("milc", "lbm", "mcf"))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.TotalOverStatic, "total-over-static")
	b.ReportMetric(h.OverBestAlt, "over-best-alt")
	b.ReportMetric(h.EDPReduction, "EDP-reduction")
	b.Log("\n" + h.Text)
}

// --- Ablations: the design choices DESIGN.md calls out ---

func ablationRun(b *testing.B, mutate func(*Features)) float64 {
	b.Helper()
	f := FullFeatures()
	mutate(&f)
	o := tiny(SILCFM, "milc")
	o.InstrPerCore = 300_000
	o.SILC = &f
	r, err := Run(o)
	if err != nil {
		b.Fatal(err)
	}
	return float64(r.Cycles)
}

// BenchmarkAblationHistory measures the bit vector history table's
// contribution (§III-A).
func BenchmarkAblationHistory(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationRun(b, func(f *Features) {})
		without = ablationRun(b, func(f *Features) { f.History = false })
	}
	b.ReportMetric(without/with-1, "history-gain")
}

// BenchmarkAblationPredictor measures the way/location predictor's latency
// benefit (§III-F).
func BenchmarkAblationPredictor(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationRun(b, func(f *Features) {})
		without = ablationRun(b, func(f *Features) { f.Predictor = false })
	}
	b.ReportMetric(without/with-1, "predictor-gain")
}

// BenchmarkAblationAssociativity sweeps 1/2/4 ways (§III-C).
func BenchmarkAblationAssociativity(b *testing.B) {
	var w1, w2, w4 float64
	for i := 0; i < b.N; i++ {
		w1 = ablationRun(b, func(f *Features) { f.Ways = 1 })
		w2 = ablationRun(b, func(f *Features) { f.Ways = 2 })
		w4 = ablationRun(b, func(f *Features) { f.Ways = 4 })
	}
	b.ReportMetric(w1/w4-1, "4way-over-1way")
	b.ReportMetric(w2/w4-1, "4way-over-2way")
}

// BenchmarkAblationThreshold sweeps the locking threshold (§III-C: the
// paper found 50 best at its scale; ours is 16).
func BenchmarkAblationThreshold(b *testing.B) {
	run := func(th uint32) float64 {
		o := tiny(SILCFM, "milc")
		o.InstrPerCore = 300_000
		o.Tuning = &Tuning{HotThreshold: th}
		r, err := Run(o)
		if err != nil {
			b.Fatal(err)
		}
		return float64(r.Cycles)
	}
	var lo, mid, hi float64
	for i := 0; i < b.N; i++ {
		lo, mid, hi = run(4), run(16), run(48)
	}
	b.ReportMetric(lo/mid, "th4-vs-th16")
	b.ReportMetric(hi/mid, "th48-vs-th16")
}

// BenchmarkAblationBypassTarget sweeps the bypass operating point (§III-E:
// 0.8 matches the 4:1 bandwidth ratio; 1.0 disables balancing).
func BenchmarkAblationBypassTarget(b *testing.B) {
	run := func(target float64) float64 {
		o := tiny(SILCFM, "milc")
		o.InstrPerCore = 300_000
		o.Tuning = &Tuning{BypassTarget: target}
		r, err := Run(o)
		if err != nil {
			b.Fatal(err)
		}
		return float64(r.Cycles)
	}
	var t6, t8, t10 float64
	for i := 0; i < b.N; i++ {
		t6, t8, t10 = run(0.6), run(0.8), run(0.9999)
	}
	b.ReportMetric(t6/t8, "t0.6-vs-t0.8")
	b.ReportMetric(t10/t8, "t1.0-vs-t0.8")
}

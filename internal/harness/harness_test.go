package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/vm"
	"silcfm/internal/workload"
)

// tinySpec runs fast on one CPU: 4 cores, NM 4MB / FM 16MB, footprints
// scaled 1/16. The shadow checker rides along in every test run.
func tinySpec(scheme config.SchemeName, wl string) Spec {
	m := config.Small()
	m.Scheme = scheme
	return Spec{
		Machine:      m,
		Workload:     wl,
		InstrPerCore: 150_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
		ShadowCheck:  true,
	}
}

func TestRunEverySchemeCompletes(t *testing.T) {
	var base *Result
	for _, s := range append([]config.SchemeName{config.SchemeBaseline}, config.AllSchemes...) {
		r, err := Run(tinySpec(s, "milc"))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.AuditErr != nil {
			t.Fatalf("%s: audit: %v", s, r.AuditErr)
		}
		if r.ShadowErr != nil {
			t.Fatalf("%s: shadow: %v", s, r.ShadowErr)
		}
		if r.Cycles == 0 || r.TotalInstructions() < 4*150_000 {
			t.Fatalf("%s: cycles=%d instr=%d", s, r.Cycles, r.TotalInstructions())
		}
		if s == config.SchemeBaseline {
			base = r
			if r.Mem.ServicedNM != 0 {
				t.Fatal("baseline used NM")
			}
		} else if sp := r.Speedup(base.Cycles); sp < 0.1 || sp > 20 {
			t.Errorf("%s: implausible speedup %.2f", s, sp)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(tinySpec("nope", "milc")); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := Run(tinySpec(config.SchemeSILCFM, "nope")); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// Footprint beyond capacity.
	s := tinySpec(config.SchemeSILCFM, "mcf")
	s.FootScaleNum, s.FootScaleDen = 4, 1
	if _, err := Run(s); err == nil {
		t.Fatal("oversized footprint accepted")
	}
}

// TestRunRejectsBadCounterBits: an out-of-range SILC-FM counter width is a
// config error from Run, not a panic while the controller is built.
func TestRunRejectsBadCounterBits(t *testing.T) {
	for _, bits := range []int{-1, 0, 9} {
		s := tinySpec(config.SchemeSILCFM, "milc")
		s.Machine.SILC.CounterBits = bits
		s.FootScaleDen = 64
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("counter bits %d: Run panicked: %v", bits, p)
				}
			}()
			if _, err := Run(s); err == nil {
				t.Errorf("counter bits %d: Run accepted the machine", bits)
			}
		}()
	}
}

// TestPlacementTablesCostWhatRunsTouch builds the default machine's CAMEO,
// CAMEOP, HMA, PoM and SILC-FM controllers and their address spaces. Each
// address space, and each CAMEO, HMA or PoM controller, must allocate
// under 1 MiB: the placement tables are paged on first write, so a
// full-size identity fill (CAMEO's table alone held 10 MiB, PoM's dense
// tables 1.25 MiB) fails here. SILC-FM keeps the paper's metadata for each
// of its 65,536 NM frames, 32 B a frame, next to a 512 KiB history table:
// it must stay under 3 MiB (48 B frames and an 8 B remap mirror took
// 4.05 MiB in all).
// The rand policy is not built: its shuffled hand-out order is 4 B a frame.
func TestPlacementTablesCostWhatRunsTouch(t *testing.T) {
	allocated := func(build func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, s := range []config.SchemeName{config.SchemeCAMEO, config.SchemeCAMEOP, config.SchemeHMA, config.SchemePoM, config.SchemeSILCFM} {
		m := config.Default()
		m.Scheme = s
		sys := mem.NewSystem(m, sim.NewEngine())
		limit := uint64(1 << 20)
		if s == config.SchemeSILCFM {
			limit = 3 << 20
		}
		var ctl mem.Controller
		if n := allocated(func() { ctl, _ = NewController(m, sys) }); n >= limit {
			t.Errorf("%s: building the controller allocated %d B", s, n)
		}
		if ctl == nil {
			t.Fatalf("%s: no controller", s)
		}
		var space *vm.AddressSpace
		if n := allocated(func() {
			space = vm.NewAddressSpace(m.NM.Capacity, m.FM.Capacity, placementFor(s), m.Seed)
		}); n >= 1<<20 {
			t.Errorf("%s: building the %v address space allocated %d B", s, placementFor(s), n)
		}
		if space.TotalFrames() == 0 {
			t.Fatalf("%s: empty address space", s)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	// Byte-identical statistics, not just matching headline counters: any
	// hidden map-iteration or timing nondeterminism shows up somewhere in
	// stats.Run.
	a, err := Run(tinySpec(config.SchemeSILCFM, "gems"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinySpec(config.SchemeSILCFM, "gems"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Run, b.Run) {
		t.Fatalf("nondeterministic stats.Run:\n%+v\nvs\n%+v", a.Run, b.Run)
	}
	if !reflect.DeepEqual(a.Energy, b.Energy) {
		t.Fatalf("nondeterministic energy: %+v vs %+v", a.Energy, b.Energy)
	}
}

// TestShadowAndAuditAcrossSchemesRandomized runs every scheme over a
// rotation of workloads and seeds with the shadow checker and mapping audit
// active — the harness-level counterpart of the shadow package's direct
// stress driver.
func TestShadowAndAuditAcrossSchemesRandomized(t *testing.T) {
	wls := []string{"mcf", "omnet", "gems"}
	schemes := append([]config.SchemeName{config.SchemeBaseline}, config.AllSchemes...)
	for i, s := range schemes {
		spec := tinySpec(s, wls[i%len(wls)])
		spec.InstrPerCore = 80_000
		spec.Machine.Seed = int64(100 + i)
		r, err := Run(spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", s, spec.Workload, err)
		}
		if r.AuditErr != nil {
			t.Fatalf("%s/%s: audit: %v", s, spec.Workload, r.AuditErr)
		}
		if r.ShadowErr != nil {
			t.Fatalf("%s/%s: shadow: %v", s, spec.Workload, r.ShadowErr)
		}
	}
}

// TestHMAEpochsMigrate runs an HMA cell long enough for its epochs to fire
// (config.Small's 2^18-cycle epoch; mcf at 100k base instructions per core
// runs about 437k cycles), so the epoch sweep and its bulk block copies run
// under the shadow checker and the end-of-run audits. No benchmark cell
// reaches an HMA epoch boundary.
func TestHMAEpochsMigrate(t *testing.T) {
	m := config.Small()
	m.Scheme = config.SchemeHMA
	r, err := Run(Spec{
		Machine:           m,
		Workload:          "mcf",
		InstrPerCore:      100_000,
		ScaleInstrByClass: true,
		FootScaleNum:      1,
		FootScaleDen:      32,
		ShadowCheck:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Mem.Migrations == 0 {
		t.Fatalf("no HMA migrations in %d cycles (epoch %d cycles)", r.Cycles, m.HMA.EpochCycles)
	}
}

// TestHMASwapsOutUnderTiming shrinks near memory to 128 frames, so HMA's
// first epochs hand out every free frame and later epochs must swap a hot
// FM page with a cold NM resident: mem.ExchangeBlocksDMA, the two-way
// block exchange, runs inside a timed simulation under the shadow checker
// and the end-of-run audits. Shorter epochs (config.Small's 2^18 cycles
// is longer than this run) give it several. The movement trace counts the
// exchanges: in an HMA run only ExchangeBlocksDMA reports a swap.
func TestHMASwapsOutUnderTiming(t *testing.T) {
	m := config.Small()
	m.Scheme = config.SchemeHMA
	m.NM = config.HBM(256 << 10)
	m.HMA.EpochCycles = 1 << 16
	var trace bytes.Buffer
	r, err := Run(Spec{
		Machine:           m,
		Workload:          "mcf",
		InstrPerCore:      50_000,
		ScaleInstrByClass: true,
		FootScaleNum:      1,
		FootScaleDen:      32,
		ShadowCheck:       true,
		Telemetry:         &telemetry.Config{TraceW: &trace, TraceLimit: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range tr.TraceEvents {
		kinds[e.Name]++
	}
	if kinds["swap"] == 0 || kinds["relocate"] == 0 {
		t.Fatalf("%d block exchanges and %d subblock relocations in %d cycles (%d migrations); want both paths to run",
			kinds["swap"], kinds["relocate"], r.Cycles, r.Mem.Migrations)
	}
}

// TestRunRejectsEmptyQueues: a DRAM scheduling window below one entry is a
// config error from Run; such a run used to spin without end.
func TestRunRejectsEmptyQueues(t *testing.T) {
	for _, n := range []int{0, -4} {
		s := tinySpec(config.SchemeSILCFM, "mcf")
		s.InstrPerCore = 20_000
		s.FootScaleDen = 32
		for _, d := range []*config.DRAMConfig{&s.Machine.NM, &s.Machine.FM} {
			d.ReadQueueLen, d.WriteQueueLen = n, n
		}
		if _, err := Run(s); err == nil {
			t.Errorf("queues of %d entries accepted", n)
		}
	}
}

// TestRunRejectsOversizedPoMSet: NM 2 KiB under FM 128 MiB gives PoM one
// congruence set of 65,537 blocks, more than its uint16 locations hold. Such
// a run used to alias two blocks at one NM frame and still report no error,
// because the end-of-run sampled audit missed the aliased block.
func TestRunRejectsOversizedPoMSet(t *testing.T) {
	s := tinySpec(config.SchemePoM, "mcf")
	s.InstrPerCore = 20_000
	s.FootScaleDen = 64
	s.Machine.NM = config.HBM(2 << 10)
	s.Machine.FM = config.DDR3(128 << 20)
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "65536 blocks per congruence set") {
		t.Fatalf("Run = %v, want the PoM set limit named", err)
	}
}

// TestRunRejectsPoMWaysNotDividingNM: 2 ways over NM 10 KiB (5 blocks)
// leave PoM's last flat blocks past their set's row, where two of them
// collided at one NM frame before any access.
func TestRunRejectsPoMWaysNotDividingNM(t *testing.T) {
	s := tinySpec(config.SchemePoM, "mcf")
	s.InstrPerCore = 2_000
	s.FootScaleDen = 4096 // mcf fits the 50 KiB machine
	s.Machine.NM = config.HBM(10 << 10)
	s.Machine.FM = config.DDR3(40 << 10)
	s.Machine.PoM.Ways = 2
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "pom ways 2 must divide the 5 NM blocks") {
		t.Fatalf("Run = %v, want the PoM ways rule named", err)
	}
}

func TestScaleInstrByClass(t *testing.T) {
	s := tinySpec(config.SchemeBaseline, "bwaves") // low MPKI: x8
	s.ScaleInstrByClass = true
	s.InstrPerCore = 50_000
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalInstructions() < 4*8*50_000 {
		t.Fatalf("class scaling not applied: %d instructions", r.TotalInstructions())
	}
}

func TestSILCBeatsBaselineOnHotWorkload(t *testing.T) {
	// The headline sanity check at tiny scale: a bandwidth-bound workload
	// with a compact hot set must benefit from SILC-FM. Long enough to get
	// past swap-in warmup.
	bs := tinySpec(config.SchemeBaseline, "milc")
	bs.InstrPerCore = 600_000
	bs.FootScaleDen = 8
	base, err := Run(bs)
	if err != nil {
		t.Fatal(err)
	}
	ss := tinySpec(config.SchemeSILCFM, "milc")
	ss.InstrPerCore = 600_000
	ss.FootScaleDen = 8
	silc, err := Run(ss)
	if err != nil {
		t.Fatal(err)
	}
	if sp := silc.Speedup(base.Cycles); sp < 1.0 {
		t.Fatalf("SILC-FM speedup on milc = %.2f, want > 1", sp)
	}
	if silc.Mem.AccessRate() < 0.3 {
		t.Fatalf("access rate %.2f too low", silc.Mem.AccessRate())
	}
}

func tinyExp() ExpConfig {
	m := config.Small()
	return ExpConfig{
		Machine:      m,
		InstrPerCore: 60_000,
		Workloads:    []string{"milc", "xalanc"},
		FootScaleNum: 1,
		FootScaleDen: 16,
		Parallelism:  2,
	}
}

func TestSweepFigure7Shape(t *testing.T) {
	sw, tbl, err := Figure7(tinyExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 { // 2 workloads + geomean
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, v := range Figure7Variants() {
		if sw.GeoMeanSpeedup(v.Label) <= 0 {
			t.Fatalf("%s: nonpositive geomean", v.Label)
		}
	}
	// Figure 8 derives from the same sweep.
	f8 := Figure8(sw)
	if len(f8.Rows) != 3 {
		t.Fatalf("figure 8 rows = %d", len(f8.Rows))
	}
}

func TestFigure6VariantsOrdered(t *testing.T) {
	vs := Figure6Variants()
	want := []string{"rand", "swap", "+lock", "+assoc", "+bypass"}
	if len(vs) != len(want) {
		t.Fatalf("variants = %d", len(vs))
	}
	for i, v := range vs {
		if v.Label != want[i] {
			t.Fatalf("variant %d = %s, want %s", i, v.Label, want[i])
		}
	}
	// The mutations must produce valid machines.
	for _, v := range vs {
		m := config.Default()
		v.Mutate(&m)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", v.Label, err)
		}
	}
}

func TestTableIIISmall(t *testing.T) {
	cfg := tinyExp()
	f, err := RunFigures(cfg, "table3")
	if err != nil {
		t.Fatal(err)
	}
	tbl, runs := f.TableIII(), f.Table3.Baseline
	if len(tbl.Rows) != 2 || len(runs) != 2 {
		t.Fatalf("rows=%d runs=%d", len(tbl.Rows), len(runs))
	}
	if runs["milc"].AvgMPKI() <= runs["xalanc"].AvgMPKI() {
		t.Fatalf("MPKI ordering violated: milc %.1f !> xalanc %.1f",
			runs["milc"].AvgMPKI(), runs["xalanc"].AvgMPKI())
	}
}

func TestHeadlineComputation(t *testing.T) {
	cfg := tinyExp()
	cfg.Workloads = []string{"milc"}
	f, err := RunFigures(cfg, "fig6")
	if err != nil {
		t.Fatal(err)
	}
	f7, _, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := ComputeHeadline(f.Fig6, f7)
	if h.BestAlt == "" {
		t.Fatal("no best alternative identified")
	}
	if h.Text == "" {
		t.Fatal("empty headline")
	}
}

func TestTraceDrivenRun(t *testing.T) {
	// Capture a short synthetic trace, then replay it through the full
	// pipeline.
	dir := t.TempDir()
	path := dir + "/t.sfmt"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewTraceWriter(f, "captured")
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewSynthetic(workload.Params{
		Name: "t", FootprintPages: 256, HotPages: 64, HotProb: 0.9,
		VisitSubblocksMin: 4, VisitSubblocksMax: 8, GapMean: 5,
	}, 3)
	var ref workload.Ref
	for i := 0; i < 30000; i++ {
		g.Next(&ref)
		if err := w.Write(ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	r, err := Run(Spec{Machine: m, TracePath: path, InstrPerCore: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "captured" {
		t.Fatalf("workload label = %q", r.Workload)
	}
	if r.Cycles == 0 || r.Mem.LLCMisses == 0 {
		t.Fatal("trace-driven run did nothing")
	}
	// Deterministic replay: same trace, same result.
	r2, err := Run(Spec{Machine: m, TracePath: path, InstrPerCore: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != r2.Cycles {
		t.Fatalf("trace replay nondeterministic: %d vs %d", r.Cycles, r2.Cycles)
	}
	if _, err := Run(Spec{Machine: m, TracePath: dir + "/missing.sfmt"}); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestSchemesSeeIdenticalMissStreams(t *testing.T) {
	// The CPU side is scheme-independent: per-core reference streams are
	// identical under every scheme, so demand miss counts agree to within
	// the shared-LLC interleaving noise (scheme timing changes the order
	// in which cores touch the shared cache, nothing more).
	var counts []float64
	for _, s := range []config.SchemeName{config.SchemeBaseline, config.SchemeCAMEO, config.SchemeSILCFM} {
		r, err := Run(tinySpec(s, "gems"))
		if err != nil {
			t.Fatal(err)
		}
		var demand uint64
		for i := range r.Cores {
			demand += r.Cores[i].LLCMisses
		}
		counts = append(counts, float64(demand))
	}
	for _, c := range counts[1:] {
		if ratio := c / counts[0]; ratio < 0.99 || ratio > 1.01 {
			t.Fatalf("schemes saw substantially different miss streams: %v", counts)
		}
	}
}

func TestHeterogeneousMix(t *testing.T) {
	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	r, err := Run(Spec{
		Machine:           m,
		Mix:               []string{"milc", "xalanc"},
		InstrPerCore:      50_000,
		ScaleInstrByClass: true,
		FootScaleNum:      1,
		FootScaleDen:      16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "mix(milc,xalanc)" {
		t.Fatalf("label = %q", r.Workload)
	}
	// Class scaling: xalanc (low, x8) cores retire 4x the instructions of
	// milc (high, x2) cores.
	if len(r.Cores) != 4 {
		t.Fatalf("cores = %d", len(r.Cores))
	}
	milcInstr := r.Cores[0].Instructions // core 0: milc
	xalInstr := r.Cores[1].Instructions  // core 1: xalanc
	if xalInstr < 3*milcInstr {
		t.Fatalf("class-scaled mix targets wrong: milc=%d xalanc=%d", milcInstr, xalInstr)
	}
	// Unknown mix member is rejected.
	if _, err := Run(Spec{Machine: m, Mix: []string{"milc", "nope"}, InstrPerCore: 1000}); err == nil {
		t.Fatal("bad mix accepted")
	}
}

// Paper stories at tiny scale: the qualitative relationships each figure
// depends on.

func TestPrefetchRaisesAccessRate(t *testing.T) {
	// CAMEOP's next-3-line prefetch must raise NM residency over CAMEO on
	// a spatially local workload (§IV-A / Figure 8).
	spec := func(s config.SchemeName) Spec {
		sp := tinySpec(s, "lbm")
		sp.InstrPerCore = 400_000
		sp.FootScaleDen = 8
		return sp
	}
	cam, err := Run(spec(config.SchemeCAMEO))
	if err != nil {
		t.Fatal(err)
	}
	camp, err := Run(spec(config.SchemeCAMEOP))
	if err != nil {
		t.Fatal(err)
	}
	if camp.Mem.AccessRate() <= cam.Mem.AccessRate() {
		t.Fatalf("camp access rate %.3f !> cam %.3f", camp.Mem.AccessRate(), cam.Mem.AccessRate())
	}
}

func TestPoMWastesBandwidthOnPointerChasing(t *testing.T) {
	// On a low-spatial-locality workload, PoM's whole-block migrations
	// cost far more bytes per demand byte than SILC-FM's subblock swaps
	// (§II-B vs §III-A).
	spec := func(s config.SchemeName) Spec {
		sp := tinySpec(s, "omnet")
		sp.InstrPerCore = 300_000
		sp.FootScaleDen = 8
		return sp
	}
	pom, err := Run(spec(config.SchemePoM))
	if err != nil {
		t.Fatal(err)
	}
	silc, err := Run(spec(config.SchemeSILCFM))
	if err != nil {
		t.Fatal(err)
	}
	if pom.Mem.Migrations == 0 {
		t.Skip("no PoM migrations at this scale")
	}
	// Efficiency metric: migration bytes spent per NM-serviced miss. PoM
	// pays for all 32 subblocks but omnet uses 1-4 of them; SILC-FM only
	// moves what is touched (plus history-predicted subblocks).
	perHit := func(r *Result) float64 {
		mig := r.Mem.Bytes[stats.NM][stats.Migration] + r.Mem.Bytes[stats.FM][stats.Migration]
		if r.Mem.ServicedNM == 0 {
			return 0
		}
		return float64(mig) / float64(r.Mem.ServicedNM)
	}
	pomEff, silcEff := perHit(pom), perHit(silc)
	if pomEff <= silcEff {
		t.Fatalf("PoM migration bytes/NM hit %.1f !> SILC %.1f on pointer chasing", pomEff, silcEff)
	}
}

func TestEnergyFavorsNMHeavySchemes(t *testing.T) {
	// Servicing from HBM is cheaper per bit: SILC-FM's dynamic energy per
	// demand byte must undercut the all-FM baseline's.
	bs := tinySpec(config.SchemeBaseline, "milc")
	bs.InstrPerCore = 400_000
	bs.FootScaleDen = 8
	base, err := Run(bs)
	if err != nil {
		t.Fatal(err)
	}
	ss := bs
	ss.Machine.Scheme = config.SchemeSILCFM
	silc, err := Run(ss)
	if err != nil {
		t.Fatal(err)
	}
	perByte := func(r *Result) float64 {
		demand := r.Mem.Bytes[stats.NM][stats.Demand] + r.Mem.Bytes[stats.FM][stats.Demand]
		return (r.Energy.NMDynamicNJ + r.Energy.FMDynamicNJ) / float64(demand)
	}
	// SILC moves extra migration bytes, so compare FM dynamic energy: the
	// baseline burns all of it in DDR3.
	if base.Energy.FMDynamicNJ <= silc.Energy.FMDynamicNJ {
		t.Fatalf("baseline FM energy %.0f !> silc %.0f", base.Energy.FMDynamicNJ, silc.Energy.FMDynamicNJ)
	}
	_ = perByte
}

// TestExemplarRecorderExact: every captured exemplar's span decomposition
// sums exactly to its recorded latency, each path holds at most K
// exemplars worst-first, and the per-path worst is the latency histogram's
// exact max. TestPlanesAreInert proves the recorder inert.
func TestExemplarRecorderExact(t *testing.T) {
	on, err := Run(tinySpec(config.SchemeSILCFM, "milc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Exemplars) == 0 {
		t.Fatal("enabled recorder captured nothing")
	}
	worst := map[string]uint64{}
	counts := map[string]int{}
	prevPath, prevLat := "", uint64(0)
	for i := range on.Exemplars {
		e := &on.Exemplars[i]
		var sum uint64
		for _, sp := range e.Spans {
			sum += sp.Cycles
		}
		if sum != e.Latency {
			t.Fatalf("exemplar %d (%s): span sum %d != latency %d", i, e.Path, sum, e.Latency)
		}
		if e.CompleteCycle-e.StartCycle != e.Latency {
			t.Fatalf("exemplar %d (%s): complete-start %d != latency %d",
				i, e.Path, e.CompleteCycle-e.StartCycle, e.Latency)
		}
		if e.Path == prevPath && e.Latency > prevLat {
			t.Fatalf("path %s not worst-first: %d after %d", e.Path, e.Latency, prevLat)
		}
		if e.Path != prevPath {
			worst[e.Path] = e.Latency
		}
		prevPath, prevLat = e.Path, e.Latency
		counts[e.Path]++
	}
	for path, n := range counts {
		if n > exemplar.K {
			t.Fatalf("path %s holds %d exemplars, K=%d", path, n, exemplar.K)
		}
	}
	// The worst exemplar per path is the histogram's exact max.
	for _, s := range on.Lat.Summaries() {
		w, ok := worst[s.Path]
		if !ok {
			if s.Count > 0 {
				t.Fatalf("path %s completed %d demands but captured no exemplar", s.Path, s.Count)
			}
			continue
		}
		if w != s.Max {
			t.Fatalf("path %s: worst exemplar %d != histogram max %d", s.Path, w, s.Max)
		}
	}
}

package silcfm

import (
	"strings"
	"testing"

	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/manifest"
)

// tiny returns laptop-scale options that still exercise the full pipeline:
// 4 cores, NM 4 MiB, FM 16 MiB, footprints scaled 1/8.
func tiny(s Scheme, wl string) Options {
	return Options{
		Scheme:            s,
		Workload:          wl,
		InstrPerCore:      120_000,
		Cores:             4,
		NMCapacity:        4 << 20,
		FMCapacity:        16 << 20,
		FootprintScaleDen: 8,
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	r, err := Run(tiny("", ""))
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme != "silc" || r.Workload != "mcf" {
		t.Fatalf("defaults: %s/%s", r.Scheme, r.Workload)
	}
	if r.Cycles == 0 || r.Instructions < 4*120_000 {
		t.Fatalf("cycles=%d instr=%d", r.Cycles, r.Instructions)
	}
}

func TestRunAllSchemes(t *testing.T) {
	for _, s := range Schemes() {
		r, err := Run(tiny(s, "milc"))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if string(s) != r.Scheme {
			t.Fatalf("scheme echo: %s vs %s", s, r.Scheme)
		}
		if r.AccessRate < 0 || r.AccessRate > 1 {
			t.Fatalf("%s: access rate %f", s, r.AccessRate)
		}
	}
}

func TestRunRejectsGarbage(t *testing.T) {
	if _, err := Run(tiny("bogus", "milc")); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if _, err := Run(tiny(SILCFM, "bogus")); err == nil {
		t.Fatal("bogus workload accepted")
	}
	o := tiny(SILCFM, "milc")
	o.NMCapacity = 12345 // not a block multiple
	if _, err := Run(o); err == nil {
		t.Fatal("bad capacity accepted")
	}
}

func TestSpeedupOver(t *testing.T) {
	a := &Report{Cycles: 100}
	b := &Report{Cycles: 200}
	if got := a.SpeedupOver(b); got != 2 {
		t.Fatalf("SpeedupOver = %v", got)
	}
	var z Report
	if z.SpeedupOver(a) != 0 {
		t.Fatal("zero-cycle report must not divide by zero")
	}
}

func TestFeatureToggles(t *testing.T) {
	f := Features{Ways: 1} // everything else off
	o := tiny(SILCFM, "milc")
	o.SILC = &f
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Locks != 0 {
		t.Fatal("locking happened while disabled")
	}
	if r.BypassedAccesses != 0 {
		t.Fatal("bypassing happened while disabled")
	}
	// Zero Ways normalizes to direct-mapped rather than erroring.
	o.SILC = &Features{}
	if _, err := Run(o); err != nil {
		t.Fatalf("zero-value features rejected: %v", err)
	}
}

func TestWorkloadsAndSchemesLists(t *testing.T) {
	if len(Workloads()) != 14 {
		t.Fatalf("workloads = %d, want 14 (Table III)", len(Workloads()))
	}
	if len(Schemes()) != 7 {
		t.Fatalf("schemes = %d, want 7", len(Schemes()))
	}
	if Schemes()[0] != Baseline {
		t.Fatal("baseline must come first")
	}
}

func TestFullFeatures(t *testing.T) {
	f := FullFeatures()
	if !f.Locking || !f.Bypass || !f.Predictor || !f.History || f.Ways != 4 {
		t.Fatalf("FullFeatures = %+v", f)
	}
}

func tinyExperiment() ExperimentOptions {
	return ExperimentOptions{
		InstrPerCore:      40_000,
		Workloads:         []string{"milc"},
		Cores:             4,
		NMCapacity:        4 << 20,
		FMCapacity:        16 << 20,
		FootprintScaleDen: 8,
		Parallelism:       2,
	}
}

func TestExperimentTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	t3, err := TableIII(tinyExperiment())
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 1 || !strings.Contains(t3.String(), "milc") {
		t.Fatalf("TableIII:\n%s", t3)
	}
	f7, err := Figure7(tinyExperiment())
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Columns) != 7 { // workload + 6 schemes
		t.Fatalf("Figure7 columns: %v", f7.Columns)
	}
	if !strings.Contains(f7.String(), "geomean") {
		t.Fatal("Figure7 lacks geomean row")
	}
	f8, err := Figure8(tinyExperiment())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f8.Title, "0.8") {
		t.Fatalf("Figure8 title: %s", f8.Title)
	}
}

func TestHeadlineAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	h, err := ComputeHeadline(tinyExperiment())
	if err != nil {
		t.Fatal(err)
	}
	if h.BestAlt == "" || h.Text == "" {
		t.Fatalf("headline incomplete: %+v", h)
	}
}

func TestTuningOverrides(t *testing.T) {
	o := tiny(SILCFM, "milc")
	o.Tuning = &Tuning{HotThreshold: 2, AgingInterval: 1 << 14}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// A very low threshold must lock far more than the default.
	o2 := tiny(SILCFM, "milc")
	r2, err := Run(o2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Locks <= r2.Locks {
		t.Fatalf("threshold 2 locks (%d) not above default (%d)", r.Locks, r2.Locks)
	}
}

func TestMixThroughPublicAPI(t *testing.T) {
	o := tiny(SILCFM, "")
	o.Mix = []string{"milc", "xalanc"}
	o.InstrPerCore = 40_000
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "mix(milc,xalanc)" {
		t.Fatalf("label %q", r.Workload)
	}
}

func TestFigure6AndFigure9Wrappers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	o := tinyExperiment()
	o.InstrPerCore = 30_000
	f6, err := Figure6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Columns) != 6 { // workload + rand/swap/+lock/+assoc/+bypass
		t.Fatalf("Figure6 columns: %v", f6.Columns)
	}
	if f6.CSV() == "" {
		t.Fatal("empty CSV")
	}
	f9, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) != 3 {
		t.Fatalf("Figure9 rows: %d", len(f9.Rows))
	}
}

// TestReportKeepsRowThrashEvidence: the -json report's health rows carry
// the row-thrash evidence (row conflicts, row operations, bank imbalance)
// the detector recorded, not just the fields of the older incident kinds.
func TestReportKeepsRowThrashEvidence(t *testing.T) {
	res := &harness.Result{Health: []health.Incident{{
		Kind:     health.KindRowThrash,
		Epochs:   3,
		Evidence: health.Evidence{RowConflicts: 41, RowOps: 97, BankImbalance: 2.5},
	}}}
	b, err := manifest.Canonical(reportOf(res, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"row_conflicts": 41`, `"row_ops": 97`, `"bank_imbalance": 2.5`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("report JSON missing %s:\n%s", want, b)
		}
	}
}

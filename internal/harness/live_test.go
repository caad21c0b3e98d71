package harness

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/telemetry/live"
)

// TestResultErrOrder: Err reports the data-integrity audit first, then the
// shadow checker, then conservation, each wrapped so errors.Is sees the
// cause; a clean run has no verdict.
func TestResultErrOrder(t *testing.T) {
	audit, shadow, cons := errors.New("audit"), errors.New("shadow"), errors.New("cons")
	cases := []struct {
		r    Result
		want error
		text string
	}{
		{Result{AuditErr: audit, ShadowErr: shadow, ConservationErr: cons}, audit, "data-integrity audit failed: audit"},
		{Result{ShadowErr: shadow, ConservationErr: cons}, shadow, "shadow integrity check failed: shadow"},
		{Result{ConservationErr: cons}, cons, "counter-conservation audit failed: cons"},
	}
	for _, c := range cases {
		err := c.r.Err()
		if !errors.Is(err, c.want) || err.Error() != c.text {
			t.Errorf("Err() = %v, want %q wrapping %v", err, c.text, c.want)
		}
	}
	if err := (&Result{}).Err(); err != nil {
		t.Errorf("clean run Err() = %v, want nil", err)
	}
}

// thrashConfig is the postmortem thrash geometry (8 MB NM under a milc
// footprint slice) as a one-workload SILC-FM sweep; it reliably opens
// health incidents and captures flight-recorder bundles.
func thrashConfig() ExpConfig {
	m := config.Default()
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	return ExpConfig{
		Machine:      m,
		InstrPerCore: 100_000,
		Workloads:    []string{"milc"},
		FootScaleNum: 1,
		FootScaleDen: 16,
		Parallelism:  2,
	}
}

// TestSweepFeedsLiveHub: a sweep attached to a live hub streams its
// flight-recorder bundles into the incident store and its tail-exemplar
// snapshots into the exemplar store, under "<sweep>/<label>/<workload>"
// run ids.
func TestSweepFeedsLiveHub(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()
	cfg := thrashConfig()
	cfg.Live = srv
	sw := &SweepResult{Name: "thrash", Cfg: cfg, Variants: []Variant{SchemeVariant(config.SchemeSILCFM)}}
	if _, err := runPlan(cfg, []*SweepResult{sw}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	res := sw.Runs["silc"]["milc"]
	if len(res.Bundles) == 0 {
		t.Fatal("thrash sweep captured no bundles")
	}
	reg := srv.Registry()
	var refs int
	for _, ref := range reg.Incidents() {
		if ref.Run == "thrash/silc/milc" {
			refs++
		}
	}
	if refs != len(res.Bundles) {
		t.Errorf("hub lists %d thrash/silc/milc incidents, run produced %d bundles", refs, len(res.Bundles))
	}
	var found bool
	for _, set := range reg.Exemplars() {
		if set.Run == "thrash/silc/milc" && len(set.Exemplars) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("hub holds no exemplars for thrash/silc/milc")
	}
	if runs := reg.Runs(); len(runs) != 2 {
		t.Errorf("hub tracks %d runs, want thrash/baseline/milc and thrash/silc/milc", len(runs))
	}
	for _, rs := range reg.Runs() {
		if rs.State != "done" {
			t.Errorf("run %s state %q, want done", rs.Run, rs.State)
		}
	}
}

// oneWorkload is tinyExp on milc alone, one cell at a time.
func oneWorkload() ExpConfig {
	cfg := tinyExp()
	cfg.InstrPerCore = 20_000
	cfg.Workloads = []string{"milc"}
	cfg.Parallelism = 1
	return cfg
}

// TestSweepReportsTelemetryCloseError: a per-run output that fails to
// flush (its metrics file is /dev/full) leaves that output truncated, so
// the sweep must fail with the cell's telemetry error.
func TestSweepReportsTelemetryCloseError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "flush_silc_milc.jsonl")); err != nil {
		t.Skip("symlink:", err)
	}
	cfg := oneWorkload()
	cfg.Out.Metrics = dir
	_, err := runPlan(cfg, []*SweepResult{{Name: "flush", Cfg: cfg, Variants: []Variant{SchemeVariant(config.SchemeSILCFM)}}})
	if !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), "flush/silc/milc") ||
		!strings.Contains(err.Error(), "telemetry") {
		t.Fatalf("Sweep error = %v, want flush/silc/milc failing with a telemetry ENOSPC error", err)
	}
}

// TestSweepFailsCellWhoseOutputCannotBeCreated: a per-run output file that
// cannot be created fails that cell and the sweep instead of running the
// cell without its outputs; the files already opened for the cell stay
// unwritten (TestRunFailsBeforeSimulatingOnUncreatableOutput checks that
// they are closed).
func TestSweepFailsCellWhoseOutputCannotBeCreated(t *testing.T) {
	metrics, trace := t.TempDir(), t.TempDir()
	// A directory where the baseline cell's trace file belongs.
	if err := os.Mkdir(filepath.Join(trace, "create_baseline_milc.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := oneWorkload()
	cfg.Out = Outputs{Metrics: metrics, Trace: trace}
	_, err := runPlan(cfg, []*SweepResult{{Name: "create", Cfg: cfg, Variants: []Variant{SchemeVariant(config.SchemeSILCFM)}}})
	if err == nil || !strings.Contains(err.Error(), "create/baseline/milc") {
		t.Fatalf("Sweep error = %v, want the create/baseline/milc cell failing", err)
	}
	if fi, err := os.Stat(filepath.Join(metrics, "create_baseline_milc.jsonl")); err != nil || fi.Size() != 0 {
		t.Fatalf("failed cell's metrics file: %v, want created and never written", err)
	}
	if fi, err := os.Stat(filepath.Join(metrics, "create_silc_milc.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("healthy cell's metrics file: %v, want written", err)
	}
}

// TestTableIIIHonoursPerRunOptions: Table III runs through the plan, so every
// workload gets its per-run output files, progress line and live-hub run,
// like any other sweep's baseline leg.
func TestTableIIIHonoursPerRunOptions(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()
	var progress strings.Builder
	dir := t.TempDir()
	cfg := tinyExp()
	cfg.Parallelism = 1
	cfg.Live = srv
	cfg.Progress = &progress
	cfg.Out.Metrics = dir
	if _, err := RunFigures(cfg, "table3"); err != nil {
		t.Fatal(err)
	}
	for _, wl := range cfg.Workloads {
		id := "table3/baseline/" + wl
		if fi, err := os.Stat(filepath.Join(dir, "table3_baseline_"+wl+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s metrics file: %v, want written", id, err)
		}
		if !strings.Contains(progress.String(), "done "+id+": ok") {
			t.Errorf("progress %q lacks %s", progress.String(), id)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != len(cfg.Workloads) {
		t.Errorf("%d metrics files, want one per workload (%d)", len(ents), len(cfg.Workloads))
	}
	if runs := srv.Registry().Runs(); len(runs) != len(cfg.Workloads) {
		t.Errorf("live hub saw %d runs, want %d", len(runs), len(cfg.Workloads))
	}
}

// TestFigure9KeepsEveryCellsOutputs: the three capacity sweeps of Figure 9
// share labels and workloads, so only the sweep name in each cell id keeps
// their output files apart: one metrics and one health file per cell.
func TestFigure9KeepsEveryCellsOutputs(t *testing.T) {
	metrics, healthDir := t.TempDir(), t.TempDir()
	cfg := oneWorkload()
	cfg.InstrPerCore = 5_000
	cfg.Parallelism = 2
	cfg.Out = Outputs{Metrics: metrics, Health: healthDir}
	f, err := RunFigures(cfg, "fig9")
	if err != nil {
		t.Fatal(err)
	}
	cells := len(f.Cells)
	for _, c := range f.Cells {
		for _, p := range []string{c.Result.Spec.Out.Metrics, c.Result.Spec.Out.Health} {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s: %v", c.ID, err)
			}
		}
	}
	if cells != 18 {
		t.Fatalf("Figure 9 ran %d cells on one workload, want 18", cells)
	}
	for _, dir := range []string{metrics, healthDir} {
		if ents, _ := os.ReadDir(dir); len(ents) != cells {
			t.Errorf("%s holds %d files, want one per cell (%d)", dir, len(ents), cells)
		}
	}
}

// TestFiguresRegisterDistinctRunIDs: Figure 6 and Figure 7 on one live
// hub register every cell under its own id, the no-NM legs included.
func TestFiguresRegisterDistinctRunIDs(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()
	cfg := oneWorkload()
	cfg.InstrPerCore = 5_000
	cfg.Parallelism = 2
	cfg.Live = srv
	distinct := func() int {
		ids := map[string]bool{}
		for _, rs := range srv.Registry().Runs() {
			ids[rs.Run] = true
		}
		return len(ids)
	}
	if _, err := RunFigures(cfg, "fig6"); err != nil {
		t.Fatal(err)
	}
	if n := distinct(); n != 1+5 {
		t.Errorf("after Figure 6 the hub holds %d run ids, want 1+5", n)
	}
	if _, _, err := Figure7(cfg); err != nil {
		t.Fatal(err)
	}
	if n := distinct(); n != 1+5+1+6 {
		t.Errorf("after Figure 7 the hub holds %d run ids, want 1+5 plus 1+6", n)
	}
}

package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silcfm/internal/stats"
)

// TestPlanMatchesSeparateFigures: one plan over every figure renders tables
// byte-identical to separate one-figure calls, while it runs each distinct
// fingerprint once (22 per workload, since the machine's NM is already
// FM/4) under the id of the first of fig7, fig6, table3, fig9-16, fig9-8,
// fig9-4 that needs it, and every sweep shares that one *Result.
func TestPlanMatchesSeparateFigures(t *testing.T) {
	cfg := oneWorkload()
	cfg.InstrPerCore = 5_000
	cfg.Parallelism = 2
	var progress strings.Builder
	planCfg := cfg
	planCfg.Progress = &progress
	f, err := RunFigures(planCfg, "table3", "fig6", "fig7", "fig9")
	if err != nil {
		t.Fatal(err)
	}

	alone := func(name string, table func(*Figures) *stats.Table) *stats.Table {
		one, err := RunFigures(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		return table(one)
	}
	t6 := alone("fig6", (*Figures).Figure6)
	_, t7, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t9 := alone("fig9", (*Figures).Figure9)
	t3 := alone("table3", (*Figures).TableIII)
	for _, c := range []struct{ plan, alone *stats.Table }{
		{f.TableIII(), t3}, {f.Figure6(), t6}, {f.Figure7(), t7}, {f.Figure9(), t9},
	} {
		if c.plan.String() != c.alone.String() {
			t.Errorf("plan and one-figure call disagree:\n%s\nvs\n%s", c.plan, c.alone)
		}
	}

	if len(f.Cells) != 22 {
		t.Errorf("plan ran %d distinct cells on one workload, want 22", len(f.Cells))
	}
	if n := strings.Count(progress.String(), "done "); n != len(f.Cells) {
		t.Errorf("plan ran %d simulations for %d distinct cells", n, len(f.Cells))
	}
	byFingerprint := map[string]Cell{}
	for _, c := range f.Cells {
		fp := c.Result.Spec.Fingerprint()
		if prev, dup := byFingerprint[fp]; dup {
			t.Errorf("%s and %s share fingerprint %s", prev.ID, c.ID, fp)
		}
		byFingerprint[fp] = c
	}
	for _, sw := range append([]*SweepResult{f.Table3, f.Fig6, f.Fig7}, f.Fig9...) {
		for _, v := range sw.legs() {
			r := sw.leg(v.Label)["milc"]
			if r == nil || byFingerprint[r.Spec.Fingerprint()].Result != r {
				t.Errorf("%s leg %s does not hold its distinct cell's result", sw.Name, v.Label)
			}
		}
	}
	for _, c := range []struct {
		r  *Result
		id string
	}{
		{f.Table3.Baseline["milc"], "fig7/baseline/milc"},
		{f.Fig6.Baseline["milc"], "fig7/baseline/milc"},
		{f.Fig6.Runs["rand"]["milc"], "fig7/rand/milc"},
		{f.Fig6.Runs["+bypass"]["milc"], "fig7/silc/milc"},
		{f.Fig6.Runs["swap"]["milc"], "fig6/swap/milc"},
		{f.Fig9[0].Baseline["milc"], "fig9-16/baseline/milc"},
		{f.Fig9[2].Baseline["milc"], "fig7/baseline/milc"},
		{f.Fig9[2].Runs["pom"]["milc"], "fig7/pom/milc"},
	} {
		if got := byFingerprint[c.r.Spec.Fingerprint()].ID; got != c.id {
			t.Errorf("cell owned by %s, want %s", got, c.id)
		}
	}
}

// TestRunFiguresRejectsBadInputBeforeRunning: unknown, empty and repeated
// workload names fail together in one error, and an unknown figure fails,
// before any cell runs or any output directory is made.
func TestRunFiguresRejectsBadInputBeforeRunning(t *testing.T) {
	var progress strings.Builder
	cfg := oneWorkload()
	cfg.Workloads = []string{"lbm", "lbm", "", "nope"}
	cfg.Progress = &progress
	cfg.Out.Metrics = filepath.Join(t.TempDir(), "metrics")
	_, err := RunFigures(cfg, "fig7")
	if err == nil || !strings.Contains(err.Error(), `workloads "lbm", "", "nope":`) {
		t.Errorf("RunFigures error = %v, want the repeated, empty and unknown names in one error", err)
	}
	if _, err := RunFigures(oneWorkload(), "fig10"); err == nil || !strings.Contains(err.Error(), `"fig10"`) {
		t.Errorf("RunFigures(fig10) error = %v, want unknown figure", err)
	}
	if progress.Len() != 0 {
		t.Errorf("cells ran before the error:\n%s", progress.String())
	}
	if _, err := os.Stat(cfg.Out.Metrics); !os.IsNotExist(err) {
		t.Errorf("metrics directory: %v, want never created", err)
	}
}

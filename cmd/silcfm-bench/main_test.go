package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"silcfm/internal/manifest"
)

// historySteps writes one single-cell manifest per name into a temporary
// directory, runs -history over args (relative to that directory) and
// returns the trajectory's step labels in report order. The manifests carry
// no label, so each step is labelled with its file name.
func historySteps(t *testing.T, names []string, args ...string) []string {
	t.Helper()
	dir := t.TempDir()
	for _, n := range names {
		m := manifest.New("test", "")
		m.Add(manifest.Entry{
			ID:     "cell",
			Config: manifest.Config{Fingerprint: "fp"},
			Sim:    manifest.Sim{Cycles: 1000},
			Host:   manifest.Host{SimCyclesPerSec: 1e6, WallSeconds: 0.1},
		})
		if err := m.WriteFile(filepath.Join(dir, n+".json")); err != nil {
			t.Fatal(err)
		}
	}
	patterns := make([]string, len(args))
	for i, a := range args {
		patterns[i] = filepath.Join(dir, a)
	}
	out := filepath.Join(dir, "trajectory.json")
	if code := runHistory(patterns, filepath.Join(dir, "trajectory.md"), out); code != 0 {
		t.Fatalf("runHistory(%q) exited %d", args, code)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tr manifest.Trajectory
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	return tr.Steps
}

// TestHistoryGlobExpandsInNaturalOrder: a glob over the committed baselines
// orders PR9 before PR10, where a lexical sort would put PR10 first.
func TestHistoryGlobExpandsInNaturalOrder(t *testing.T) {
	names := []string{"BENCH_PR10", "BENCH_PR2", "BENCH_PR9"}
	got := historySteps(t, names, "BENCH_PR*.json")
	if want := []string{"BENCH_PR2", "BENCH_PR9", "BENCH_PR10"}; !reflect.DeepEqual(got, want) {
		t.Errorf("glob steps %q, want %q", got, want)
	}
}

// TestHistoryExplicitPathsKeepOrder: paths named one by one stay in
// command-line order, whatever their numbers, and a glob expands in place.
func TestHistoryExplicitPathsKeepOrder(t *testing.T) {
	names := []string{"BENCH_PR10", "BENCH_PR2", "BENCH_PR9"}
	got := historySteps(t, names, "BENCH_PR10.json", "BENCH_PR2.json", "BENCH_PR9.json")
	if want := []string{"BENCH_PR10", "BENCH_PR2", "BENCH_PR9"}; !reflect.DeepEqual(got, want) {
		t.Errorf("explicit steps %q, want %q", got, want)
	}
	got = historySteps(t, names, "BENCH_PR9.json", "BENCH_PR1*.json", "BENCH_PR2.json")
	if want := []string{"BENCH_PR9", "BENCH_PR10", "BENCH_PR2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("mixed steps %q, want %q", got, want)
	}
}

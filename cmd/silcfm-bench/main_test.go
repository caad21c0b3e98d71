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

// TestKeepRepTakesFewestAllocations: the kept entry times the fastest rep
// but counts the fewest allocation objects and bytes of any rep, each its
// own minimum, whichever rep was fastest or first.
func TestKeepRepTakesFewestAllocations(t *testing.T) {
	rep := func(wall float64, objects, bytes uint64) manifest.Entry {
		return manifest.Entry{ID: "cell", Host: manifest.Host{
			WallSeconds: wall, SimCyclesPerSec: 1 / wall, AllocObjects: objects, AllocBytes: bytes}}
	}
	reps := []manifest.Entry{
		rep(0.5, 1186, 90_000), // first and fastest: pays process start-up
		rep(0.7, 541, 70_000),
		rep(0.6, 530, 71_000),
		rep(0.9, 543, 69_000),
	}
	var kept *manifest.Entry
	var fastest []bool
	for _, e := range reps {
		var f bool
		kept, f = keepRep(kept, e)
		fastest = append(fastest, f)
	}
	if want := []bool{true, false, false, false}; !reflect.DeepEqual(fastest, want) {
		t.Errorf("fastest flags %v, want %v", fastest, want)
	}
	want := manifest.Host{WallSeconds: 0.5, SimCyclesPerSec: 2, AllocObjects: 530, AllocBytes: 69_000}
	if kept.Host != want {
		t.Errorf("kept host %+v, want %+v", kept.Host, want)
	}
	if reps[0].Host.AllocObjects != 1186 {
		t.Error("keepRep changed a rep's entry")
	}

	// A later, faster rep replaces the timing but keeps the minima.
	kept, f := keepRep(kept, rep(0.4, 600, 80_000))
	want = manifest.Host{WallSeconds: 0.4, SimCyclesPerSec: 2.5, AllocObjects: 530, AllocBytes: 69_000}
	if !f || kept.Host != want {
		t.Errorf("after a faster rep: fastest %v, kept host %+v, want true and %+v", f, kept.Host, want)
	}
}

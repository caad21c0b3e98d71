package manifest

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzHistory: any two inputs either fail to decode or go through Compare
// (each way, and each manifest against itself) and BuildTrajectory with its
// Markdown report without panicking; a decoded manifest always passes
// against itself, and the report is a pure function of the two manifests.
// Seeded with each pair of consecutive committed BENCH_PR*.json baselines,
// the files silcfm-bench -diff and -history read.
func FuzzHistory(f *testing.F) {
	paths, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil || len(paths) < 2 {
		f.Fatalf("committed baselines: %d found, err %v", len(paths), err)
	}
	NaturalSort(paths)
	var prev []byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if prev != nil {
			f.Add(prev, data)
		}
		prev = data
	}
	f.Fuzz(func(t *testing.T, older, newer []byte) {
		a, err := Decode(older)
		if err != nil {
			return
		}
		b, err := Decode(newer)
		if err != nil {
			return
		}
		for _, m := range []*Manifest{a, b} {
			d, err := Compare(m, m, DiffOptions{Noise: 0.1})
			if err != nil {
				t.Fatalf("Compare against itself: %v", err)
			}
			if !d.OK() {
				t.Fatalf("a manifest fails against itself: %s\n%s", d.Summary(), d.Table)
			}
		}
		if _, err := Compare(a, b, DiffOptions{}); err != nil {
			t.Fatalf("Compare: %v", err)
		}
		if _, err := Compare(b, a, DiffOptions{Noise: 0.1, Subset: true}); err != nil {
			t.Fatalf("Compare: %v", err)
		}
		steps := []HistoryStep{{Label: "older", M: a}, {Label: "newer", M: b}}
		if r1, r2 := BuildTrajectory(steps).Markdown(), BuildTrajectory(steps).Markdown(); r1 != r2 {
			t.Fatalf("two trajectory reports of the same history differ:\n%s\nvs\n%s", r1, r2)
		}
	})
}

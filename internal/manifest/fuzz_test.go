package manifest

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
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

// FuzzLoadHistory: manifest bytes written under fuzzed file names (names
// split on "/", the one byte a name cannot hold; file i gets a for even i,
// b for odd) go through NaturalSort and LoadHistory without panicking.
// Fewer than two files, or one that does not decode, is an error;
// otherwise each step keeps its path in sorted order and is labelled with
// its manifest's label, or else its file name up to the last dot. On the
// fuzzed names naturalLess must be a strict order: irreflexive,
// antisymmetric and transitive. Seeded with each pair of consecutive
// committed BENCH_PR*.json baselines under their own names, then one and
// three of them.
func FuzzLoadHistory(f *testing.F) {
	paths, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil || len(paths) < 2 {
		f.Fatalf("committed baselines: %d found, err %v", len(paths), err)
	}
	NaturalSort(paths)
	var prev []byte
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if prev != nil {
			f.Add(filepath.Base(paths[i-1])+"/"+filepath.Base(p), prev, data)
		}
		prev = data
	}
	f.Add("BENCH_PR26.json", prev, prev)
	f.Add("PR10.json/PR9.json/pr010.x.json", prev, []byte("{}"))
	f.Fuzz(func(t *testing.T, names string, a, b []byte) {
		dir := t.TempDir()
		var files []string
		data := map[string][]byte{}
		for _, name := range strings.Split(names, "/") {
			if len(files) == 6 || name == "" || name == "." || name == ".." || data[name] != nil {
				continue
			}
			d := [2][]byte{a, b}[len(files)%2]
			if d == nil {
				d = []byte{}
			}
			if os.WriteFile(filepath.Join(dir, name), d, 0o644) != nil {
				continue // not a name this file system holds
			}
			files = append(files, name)
			data[name] = d
		}
		for _, x := range files {
			if naturalLess(x, x) {
				t.Fatalf("naturalLess(%q, %q)", x, x)
			}
			for _, y := range files {
				if naturalLess(x, y) && naturalLess(y, x) {
					t.Fatalf("naturalLess both ways on %q, %q", x, y)
				}
				for _, z := range files {
					if naturalLess(x, y) && naturalLess(y, z) && !naturalLess(x, z) {
						t.Fatalf("naturalLess(%q, %q) and (%q, %q) but not (%q, %q)", x, y, y, z, x, z)
					}
				}
			}
		}
		sorted := make([]string, len(files))
		for i, name := range files {
			sorted[i] = filepath.Join(dir, name)
		}
		NaturalSort(sorted)
		if !sort.SliceIsSorted(sorted, func(i, j int) bool { return naturalLess(sorted[i], sorted[j]) }) {
			t.Fatalf("NaturalSort left %q out of order", sorted)
		}
		steps, err := LoadHistory(sorted)
		decodes := len(files) >= 2
		for _, name := range files {
			if _, err := Decode(data[name]); err != nil {
				decodes = false
			}
		}
		if !decodes {
			if err == nil {
				t.Fatalf("LoadHistory(%q) accepted fewer than two manifests or one that does not decode", files)
			}
			return
		}
		if err != nil {
			t.Fatalf("LoadHistory(%q): %v", files, err)
		}
		if len(steps) != len(sorted) {
			t.Fatalf("%d steps from %d paths", len(steps), len(sorted))
		}
		for i, st := range steps {
			name := filepath.Base(sorted[i])
			want := st.M.Label
			if want == "" {
				want = name
				if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
					want = name[:dot]
				}
			}
			if st.Path != sorted[i] || st.Label != want {
				t.Fatalf("step %d: %q labelled %q, want %q labelled %q", i, st.Path, st.Label, sorted[i], want)
			}
		}
	})
}

package harness_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/telemetry"
)

// TestPlaneOutputsPinned pins every byte the observability planes write for
// thrashSpec under SILC-FM, CAMEO+ and PoM, plus one SILC-FM cell whose
// 8192-miss aging interval makes the run age its counters and unlock
// frames and one whose 1000-event trace ring wraps: the metrics, trace, profile, health and exemplar files, every
// postmortem bundle and the profiler's top-offender tables. Each is
// compared by sha256 digest. A refactor of a plane leaves every digest
// unchanged; only a change to the model or to an output format may
// re-record them, and must say so.
func TestPlaneOutputsPinned(t *testing.T) {
	cells := []struct {
		name   string
		scheme config.SchemeName
		aging  uint64 // SILC-FM aging interval in LLC misses; 0 keeps the default
		limit  int    // trace ring bound in events; 0 keeps the default
		want   map[string]string
	}{
		{"silc", config.SchemeSILCFM, 0, 0, map[string]string{
			"exemplars.jsonl":            "e209f4d4d56e3fca",
			"health.jsonl":               "6667b1d5b1cba308",
			"metrics.jsonl":              "bbebfb89480e8c6d",
			"postmortem/bundle-000.json": "af49b98116e27471",
			"profile.jsonl":              "6a0c8346e491a5d4",
			"top-offenders":              "14c1ba91f62cbda2",
			"trace.json":                 "65fd6f4c6f957f03",
		}},
		{"camp", config.SchemeCAMEOP, 0, 0, map[string]string{
			"exemplars.jsonl": "0022601ff91283c1",
			"health.jsonl":    "37fdda844f613ee1",
			"metrics.jsonl":   "010ae7563985c62b",
			"profile.jsonl":   "317f388be82a1559",
			"top-offenders":   "9969f46bb0b64e6e",
			"trace.json":      "0d8b7078fd8172f7",
		}},
		{"pom", config.SchemePoM, 0, 0, map[string]string{
			"exemplars.jsonl":            "8f30007533083ee5",
			"health.jsonl":               "e8561f3f05615281",
			"metrics.jsonl":              "965f6d7e12921f46",
			"postmortem/bundle-000.json": "2d9174cc0e7d1f05",
			"profile.jsonl":              "8e1f59c414d2fd85",
			"top-offenders":              "b2797ff5c71ed7a4",
			"trace.json":                 "90ef9ff3ee51cd7d",
		}},
		{"silc-aging", config.SchemeSILCFM, 8192, 0, map[string]string{
			"exemplars.jsonl":            "d8325c4670916c69",
			"health.jsonl":               "09250cdb2e08aef8",
			"metrics.jsonl":              "5d65823f667dedf3",
			"postmortem/bundle-000.json": "4aba6f2bea876ea7",
			"profile.jsonl":              "7a9832f2e8df6e73",
			"top-offenders":              "bcb31a4495c5466e",
			"trace.json":                 "b38bec6be2aac699",
		}},
		{"silc-wrapped", config.SchemeSILCFM, 0, 1000, map[string]string{
			"exemplars.jsonl":            "e209f4d4d56e3fca",
			"health.jsonl":               "6667b1d5b1cba308",
			"metrics.jsonl":              "bbebfb89480e8c6d",
			"postmortem/bundle-000.json": "af49b98116e27471",
			"profile.jsonl":              "6a0c8346e491a5d4",
			"top-offenders":              "14c1ba91f62cbda2",
			"trace.json":                 "1979c9c5174cd924",
		}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := thrashSpec()
			spec.Machine.Scheme = c.scheme
			if c.aging > 0 {
				spec.Machine.SILC.AgingInterval = c.aging
			}
			if c.limit > 0 {
				spec.Telemetry = &telemetry.Config{TraceLimit: c.limit}
			}
			spec.Out = allOutputs(dir)
			res := mustRun(t, spec)
			if c.aging > 0 && res.Mem.Unlocks == 0 {
				t.Fatalf("aging every %d misses unlocked no frame", c.aging)
			}
			got := map[string]string{}
			digest := func(name string, b []byte) {
				sum := sha256.Sum256(b)
				got[name] = hex.EncodeToString(sum[:8])
			}
			err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				rel, _ := filepath.Rel(dir, path)
				digest(filepath.ToSlash(rel), b)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Profile == nil {
				t.Fatal("profile output set but no profiler attached")
			}
			digest("top-offenders", []byte(res.Profile.TopOffenders(10)))
			names := make([]string, 0, len(got))
			for n := range got {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				if got[n] != c.want[n] {
					t.Errorf("%s: digest %q, pinned %q", n, got[n], c.want[n])
				}
			}
			for n := range c.want {
				if _, ok := got[n]; !ok {
					t.Errorf("%s: pinned but not written", n)
				}
			}
		})
	}
}

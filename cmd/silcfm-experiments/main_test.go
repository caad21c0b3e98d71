package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silcfm/internal/manifest"
)

// TestUnknownWhichIsUsageError: an unknown -which exits 2 and names the
// valid experiments, before anything simulates or writes a manifest.
func TestUnknownWhichIsUsageError(t *testing.T) {
	man := filepath.Join(t.TempDir(), "m.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-which", "fig10", "-progress", "-manifest-out", man}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"fig10"`) ||
		!strings.Contains(stderr.String(), "table3, fig6, fig7, fig8, fig9, headline, all") {
		t.Errorf("stderr %q lacks the bad name and the valid ones", stderr.String())
	}
	if stdout.Len() != 0 || strings.Contains(stderr.String(), "done ") {
		t.Errorf("ran or printed before rejecting: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	if _, err := os.Stat(man); !os.IsNotExist(err) {
		t.Errorf("manifest: %v, want none written", err)
	}
}

// TestNegativeTraceLimitIsUsageError: a negative -trace-limit exits 2
// before anything simulates, instead of silently meaning the default.
func TestNegativeTraceLimitIsUsageError(t *testing.T) {
	man := filepath.Join(t.TempDir(), "m.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-which", "fig7", "-instr", "2000", "-trace-limit", "-1", "-progress", "-manifest-out", man}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-trace-limit -1") {
		t.Errorf("stderr %q does not name the bad -trace-limit", stderr.String())
	}
	if stdout.Len() != 0 || strings.Contains(stderr.String(), "done ") {
		t.Errorf("ran or printed before rejecting: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	if _, err := os.Stat(man); !os.IsNotExist(err) {
		t.Errorf("manifest: %v, want none written", err)
	}
}

// TestBadWorkloadsFailBeforeAnyRun: a repeated, empty or unknown
// -workloads name fails the command before its first cell runs.
func TestBadWorkloadsFailBeforeAnyRun(t *testing.T) {
	for _, wls := range []string{"lbm,lbm", "lbm,", "lbm,nope"} {
		man := filepath.Join(t.TempDir(), "m.json")
		var stdout, stderr bytes.Buffer
		code := run([]string{"-which", "fig7", "-instr", "2000", "-workloads", wls, "-progress", "-manifest-out", man}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "workloads") {
			t.Errorf("-workloads %s: exit %d, stderr %q; want 1 and a workloads error", wls, code, stderr.String())
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "done ") {
			t.Errorf("-workloads %s: ran before rejecting: stdout %q, stderr %q", wls, stdout.String(), stderr.String())
		}
		if _, err := os.Stat(man); !os.IsNotExist(err) {
			t.Errorf("-workloads %s: manifest: %v, want none written", wls, err)
		}
	}
}

// TestAllWritesOneEntryPerFingerprint: -which all simulates each distinct
// cell once, so its manifest holds 22 entries per workload with distinct
// fingerprints, each under the id of the first figure that needs it.
func TestAllWritesOneEntryPerFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-which", "all", "-instr", "2000", "-workloads", "lbm", "-par", "2", "-manifest-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	man, err := manifest.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Entries) != 22 {
		t.Errorf("%d manifest entries, want 22", len(man.Entries))
	}
	ids := map[string]bool{}
	seen := map[string]string{}
	for _, e := range man.Entries {
		ids[e.ID] = true
		if prev, dup := seen[e.Config.Fingerprint]; dup {
			t.Errorf("%s and %s share fingerprint %s", prev, e.ID, e.Config.Fingerprint)
		}
		seen[e.Config.Fingerprint] = e.ID
	}
	for id, want := range map[string]bool{
		"fig7/baseline/lbm": true, "fig6/swap/lbm": true, "fig9-16/silc/lbm": true,
		"fig6/baseline/lbm": false, "table3/baseline/lbm": false, "fig6/+bypass/lbm": false, "fig9-4/silc/lbm": false,
	} {
		if ids[id] != want {
			t.Errorf("manifest has %s: %v, want %v", id, ids[id], want)
		}
	}
	for _, want := range []string{"Table III", "Figure 6", "Figure 7", "Figure 8", "Figure 9", "Headline numbers", "(22 entries)"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q", want)
		}
	}
}

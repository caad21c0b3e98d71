package harness

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/telemetry"
)

// TestRunFailsBeforeSimulatingOnUncreatableOutput: for every output kind, a
// path that cannot be created (its parent is a regular file) fails Run
// before the engine reaches its first epoch, and the outputs of the kinds
// opened before it are closed again.
func TestRunFailsBeforeSimulatingOnUncreatableOutput(t *testing.T) {
	kinds := []string{"metrics", "trace", "profile", "health", "exemplars", "postmortem"}
	for i, kind := range kinds {
		dir := t.TempDir()
		blocker := filepath.Join(dir, "file")
		if err := os.WriteFile(blocker, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		paths := make([]string, len(kinds))
		for j, k := range kinds[:i] {
			paths[j] = filepath.Join(dir, k)
		}
		paths[i] = filepath.Join(blocker, kind)
		spec := tinySpec(config.SchemeSILCFM, "milc")
		spec.Out = Outputs{Metrics: paths[0], Trace: paths[1], Profile: paths[2],
			Health: paths[3], Exemplars: paths[4], Postmortem: paths[5]}
		epochs := 0
		spec.Telemetry = &telemetry.Config{EpochCycles: 1_000,
			OnEpoch: func(telemetry.EpochState) { epochs++ }}
		fds := openFDs(t)
		res, err := Run(spec)
		if err == nil || res != nil || !strings.Contains(err.Error(), blocker) {
			t.Fatalf("%s: Run = %v, %v; want an error naming %s", kind, res, err, blocker)
		}
		if epochs != 0 {
			t.Errorf("%s: the engine ran %d epochs before the output failed", kind, epochs)
		}
		for _, p := range paths[:i] {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s: earlier output %s was not created: %v", kind, p, err)
			}
		}
		if fds >= 0 {
			if now := openFDs(t); now != fds {
				t.Errorf("%s: %d open descriptors after Run, %d before", kind, now, fds)
			}
		}
	}
}

// TestRunFailsOnFullMetricsFile: a metrics file whose writes fail (the
// device is full) fails the run with a telemetry error.
func TestRunFailsOnFullMetricsFile(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	spec := tinySpec(config.SchemeSILCFM, "milc")
	spec.InstrPerCore = 20_000
	spec.Out.Metrics = "/dev/full"
	res, err := Run(spec)
	if res != nil || !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), "telemetry") {
		t.Fatalf("Run = %v, %v; want a telemetry ENOSPC error", res, err)
	}
}

// openFDs counts the process's open file descriptors, or returns -1 where
// /proc/self/fd is unavailable. A file created and closed first makes sure
// the runtime's own lazily opened descriptors are already counted.
func openFDs(t *testing.T) int {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "warm")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
)

// thrashBundles runs the thrash configuration (8 MB NM under a milc
// footprint slice, which reliably opens incidents) with its postmortem
// directory set, and returns that directory and the run's first trigger.
func thrashBundles(tb testing.TB) (dir, trigger string) {
	tb.Helper()
	m := config.Default()
	m.Scheme = config.SchemeSILCFM
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	dir = tb.TempDir()
	res, err := harness.Run(harness.Spec{
		Machine:      m,
		Workload:     "milc",
		InstrPerCore: 100_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
		Out:          harness.Outputs{Postmortem: dir},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Bundles) == 0 {
		tb.Fatal("thrash config captured no bundles")
	}
	return dir, res.Bundles[0].Trigger
}

// TestRenderThrashBundleDir renders a real run's bundle directory, to
// stdout and through -o, into a report that opens with the first bundle's
// trigger and shows its evidence window.
func TestRenderThrashBundleDir(t *testing.T) {
	dir, trigger := thrashBundles(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	report := filepath.Join(t.TempDir(), "report.md")
	if code := run([]string{"-o", report, dir}, io.Discard, &stderr); code != 0 {
		t.Fatalf("run -o exited %d: %s", code, stderr.String())
	}
	written, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, stdout.Bytes()) {
		t.Error("-o wrote a different report than stdout")
	}
	if want := "# Postmortem: " + trigger + "\n"; !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("report does not open with %q:\n%.200s", want, stdout.String())
	}
	if !strings.Contains(stdout.String(), "\n## Evidence window\n") {
		t.Error("report has no evidence window")
	}
}

// TestRunRejectsBadArguments: no bundle argument is a usage error, and an
// empty directory or a missing path fails without a report.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{t.TempDir()}, 1},
		{[]string{filepath.Join(t.TempDir(), "missing.json")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("run(%q) = %d, stdout %d bytes, stderr %q; want %d with only an error", c.args, code, stdout.Len(), stderr.String(), c.code)
		}
	}
}

// FuzzRender: any input either fails to decode or renders; it never
// panics. Seeded with a real thrash bundle; testdata/fuzz/FuzzRender holds
// the crashers found so far (a negative pre_epochs, a negative access rate
// in the sparkline).
func FuzzRender(f *testing.F) {
	dir, _ := thrashBundles(f)
	seed, err := os.ReadFile(filepath.Join(dir, "bundle-000.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := flightrec.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		render(io.Discard, b, "fuzz.json", 12)
	})
}

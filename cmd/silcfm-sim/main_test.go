package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"silcfm"
	"silcfm/internal/stats"
)

// TestPrintJSONZeroBaseline pins the zero-length-baseline guard: comparing
// against a run with zero cycles and zero energy (EDP 0) must emit a valid
// JSON document with finite ratios, not NaN/Inf tokens.
func TestPrintJSONZeroBaseline(t *testing.T) {
	r := &silcfm.Report{Scheme: "silc", Workload: "milc", Cycles: 1000, EDP: 42}
	base := &silcfm.Report{Scheme: "base", Workload: "milc"} // zero cycles, zero EDP

	old := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	printJSON(r, base, false)
	pw.Close()
	os.Stdout = old
	out, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}

	if bytes.Contains(out, []byte("NaN")) || bytes.Contains(out, []byte("Inf")) {
		t.Fatalf("JSON output contains NaN/Inf:\n%s", out)
	}
	var doc struct {
		Speedup  float64 `json:"speedup"`
		EDPRatio float64 `json:"edp_ratio"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if doc.EDPRatio != 0 {
		t.Fatalf("edp_ratio vs zero-EDP baseline = %v, want 0", doc.EDPRatio)
	}
}

// TestEDPTextLineZeroBaseline pins the human-readable comparison line's
// arithmetic (the same stats.Ratio guard main uses for "EDP vs baseline").
func TestEDPTextLineZeroBaseline(t *testing.T) {
	r := &silcfm.Report{EDP: 42}
	base := &silcfm.Report{} // EDP 0
	line := strings.TrimSpace(
		// mirrors the main() report footer formatting
		"EDP vs baseline: " + stats.F(stats.Ratio(r.EDP, base.EDP)))
	if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
		t.Fatalf("line contains NaN/Inf: %q", line)
	}
	if !strings.HasSuffix(line, "0.000") {
		t.Fatalf("zero-EDP baseline line = %q, want ratio 0.000", line)
	}
}

// TestPrintReportLatencyLinesGolden pins the human-readable latency lines
// byte-for-byte: per-path count, mean and percentiles plus the exact max,
// followed by the tail-exemplar waterfall block when one was rendered.
func TestPrintReportLatencyLinesGolden(t *testing.T) {
	r := &silcfm.Report{
		Workload: "milc",
		Scheme:   "silc",
		DemandLatency: []silcfm.PathLatency{
			{Path: "nm-hit", Count: 1200, Mean: 43.5, P50: 40, P95: 80, P99: 120, Max: 913},
			{Path: "swap", Count: 7, Mean: 210.0, P50: 200, P95: 260, P99: 260, Max: 264},
		},
		TailExemplars: "tail exemplars:\n  spans: .=queue #=service m=meta-fetch s=swap-serial !=mispredict -=other\n",
	}

	old := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	printReport(r)
	pw.Close()
	os.Stdout = old
	out, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}

	want := []string{
		"latency nm-hit:     n=1200      mean=43.5     p50=40     p95=80     p99=120    max=913\n",
		"latency swap:       n=7         mean=210.0    p50=200    p95=260    p99=260    max=264\n",
		"tail exemplars:\n",
	}
	for _, w := range want {
		if !strings.Contains(string(out), w) {
			t.Fatalf("report output missing golden line %q:\n%s", w, out)
		}
	}
}

// runMain runs the command's main in a child copy of the test binary with
// args, returning its exit code and combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainHelper$")
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd.Env = append(os.Environ(), "SILCFM_SIM_ARGS="+string(enc))
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// TestMainHelper is the child side of runMain; it does nothing when run
// directly.
func TestMainHelper(t *testing.T) {
	enc, ok := os.LookupEnv("SILCFM_SIM_ARGS")
	if !ok {
		return
	}
	var args []string
	if err := json.Unmarshal([]byte(enc), &args); err != nil {
		t.Fatal(err)
	}
	os.Args = append([]string{"silcfm-sim"}, args...)
	main()
	os.Exit(0)
}

// TestNegativeTraceLimitIsUsageError: a negative -trace-limit exits 2
// before anything simulates or writes, instead of silently meaning the
// default.
func TestNegativeTraceLimitIsUsageError(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	code, out := runMain(t, "-scheme", "silc", "-workload", "mcf", "-instr", "2000", "-trace-out", trace, "-trace-limit", "-1")
	if code != 2 || !strings.Contains(out, "-trace-limit -1") {
		t.Fatalf("exit %d, output %q; want 2 and the bad -trace-limit named", code, out)
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("trace: %v, want none written", err)
	}
}

// TestHugeTraceLimitRecordsOnlyWhatRuns: a -trace-limit far beyond memory
// runs, and the trace holds exactly the events the run recorded.
func TestHugeTraceLimitRecordsOnlyWhatRuns(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	code, out := runMain(t, "-scheme", "silc", "-workload", "mcf", "-instr", "2000", "-trace-out", trace, "-trace-limit", "1099511627776", "-json")
	if code != 0 {
		t.Fatalf("exit %d, output %s", code, out)
	}
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
		OtherData struct {
			Events, Dropped uint64
		} `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var instants uint64
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" {
			instants++
		}
	}
	if doc.OtherData.Events == 0 || doc.OtherData.Dropped != 0 || instants != doc.OtherData.Events {
		t.Fatalf("trace holds %d events; otherData events %d dropped %d", instants, doc.OtherData.Events, doc.OtherData.Dropped)
	}
}

package live_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"silcfm/internal/config"
	"silcfm/internal/dram"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/telemetry/live"
)

// tinySpec is a small SILC-FM run.
func tinySpec() harness.Spec {
	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	return harness.Spec{
		Machine:      m,
		Workload:     "milc",
		InstrPerCore: 100_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
		Telemetry:    &telemetry.Config{EpochCycles: 20_000},
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestEmptyHubListsAreEmptyArrays: with no run registered, /progress is an
// empty JSON array and /healthz lists its runs as one, never null, like
// /api/incidents and /api/exemplars.
func TestEmptyHubListsAreEmptyArrays(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()
	if code, body := get(t, srv.URL()+"/progress"); code != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("/progress on an empty hub = %d %s, want 200 []", code, body)
	}
	code, body := get(t, srv.URL()+"/healthz")
	var hz map[string]json.RawMessage
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, body)
	}
	if code != http.StatusOK || string(hz["runs"]) != "[]" {
		t.Errorf("/healthz on an empty hub = %d runs %s, want 200 runs []", code, hz["runs"])
	}
}

// requiredFamilies are the /metrics families every scrape of a hub with a
// published run carries.
var requiredFamilies = []string{
	"silcfm_cycle", "silcfm_access_rate", "silcfm_llc_misses_total",
	"silcfm_queue_depth_peak", "silcfm_open_incidents",
	"silcfm_row_conflicts_nm_total", "silcfm_row_conflicts_fm_total",
	"silcfm_dram_row_hit_rate", "silcfm_dram_bus_util",
	"silcfm_dram_bank_imbalance", "silcfm_dram_row_conflicts",
	"silcfm_dram_bank_accesses",
}

// TestServerEndpointsAfterRealRun checks every hub endpoint after a real
// run attached through harness.AttachLive: the values it serves must be
// the run's own final values.
func TestServerEndpointsAfterRealRun(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()

	const id = "small/milc"
	spec := tinySpec()
	done := harness.AttachLive(&spec, srv.Registry(), id)
	res, err := harness.Run(spec)
	done(res)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	// Nothing is served outside the named endpoints, / included.
	for _, p := range []string{"/", "/no-such-page"} {
		if code, _ := get(t, srv.URL()+p); code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", p, code)
		}
	}

	// /metrics: valid exposition with every required family, per-bank
	// lines inside each device's geometry, and every cumulative counter
	// equal to the run's final total (Done comes after the final partial
	// epoch flush, so the last published snapshot is the end-of-run state).
	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	metrics := string(body)
	if err := live.ValidateExposition(body); err != nil {
		t.Errorf("/metrics is not valid Prometheus exposition: %v", err)
	}
	for _, family := range requiredFamilies {
		if !strings.Contains(metrics, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	checkBankShape(t, metrics, id, res.Spec.Machine)
	if res.Mem.RowHits[stats.NM] == 0 || res.Mem.BusBusyCycles[stats.FM] == 0 {
		t.Fatalf("run has no DRAM activity (%+v); the counter check would be vacuous", res.Mem)
	}
	for _, c := range res.Mem.Counters() {
		if want := fmt.Sprintf("\nsilcfm_%s_total{run=\"%s\"} %d\n", c.Name, id, c.Value); !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
	for _, want := range []string{
		fmt.Sprintf(`silcfm_run_finished{run="%s"} 1`, id),
		"# TYPE silcfm_demand_latency_cycles gauge",
		`silcfm_scheme_gauge{run="small/milc",name="locked_frames"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /api/exemplars: every exemplar's spans sum to its latency, which is
	// its completion minus start cycle; the worst per path annotates that
	// path's p99 line on /metrics in OpenMetrics exemplar syntax.
	code, body = get(t, srv.URL()+"/api/exemplars")
	if code != http.StatusOK {
		t.Fatalf("/api/exemplars status %d", code)
	}
	var exs struct {
		Runs []live.ExemplarSet `json:"runs"`
	}
	if err := json.Unmarshal(body, &exs); err != nil {
		t.Fatalf("/api/exemplars not JSON: %v", err)
	}
	if len(exs.Runs) != 1 || exs.Runs[0].Run != id || len(exs.Runs[0].Exemplars) == 0 {
		t.Fatalf("/api/exemplars = %+v, want exemplars for %q", exs.Runs, id)
	}
	worst := map[string]*exemplar.Exemplar{}
	for i := range exs.Runs[0].Exemplars {
		e := &exs.Runs[0].Exemplars[i]
		var sum uint64
		for _, sp := range e.Spans {
			if sp.Span == "" {
				t.Errorf("exemplar %d has an unnamed span", i)
			}
			sum += sp.Cycles
		}
		if e.Path == "" || sum != e.Latency || e.CompleteCycle-e.StartCycle != e.Latency {
			t.Errorf("exemplar %d (%q): span sum %d, complete-start %d, latency %d; want all equal",
				i, e.Path, sum, e.CompleteCycle-e.StartCycle, e.Latency)
		}
		if worst[e.Path] == nil {
			worst[e.Path] = e
		}
	}
	for _, p := range res.Lat.Summaries() {
		e := worst[p.Path]
		if e == nil {
			t.Errorf("path %s completed %d demands but has no exemplar", p.Path, p.Count)
			continue
		}
		want := fmt.Sprintf("silcfm_demand_latency_cycles{run=\"%s\",path=\"%s\",quantile=\"0.99\"} %d # {pa=\"0x%x\",cycle=\"%d\"} %d\n",
			id, p.Path, p.P99, e.PAddr, e.StartCycle, e.Latency)
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks the exemplar-annotated p99 line %q", strings.TrimSpace(want))
		}
	}

	// /healthz: the body status agrees with the HTTP code, and the
	// finished run has no open incidents: ok, 200.
	code, body = get(t, srv.URL()+"/healthz")
	var hz live.Healthz
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if (hz.Status == "incident") != (code == http.StatusServiceUnavailable) {
		t.Errorf("/healthz body status %q disagrees with HTTP %d", hz.Status, code)
	}
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	if hz.Status != "ok" || len(hz.Runs) != 1 || hz.Runs[0].Run != id || !hz.Runs[0].Finished {
		t.Errorf("/healthz = %+v, want ok/finished for %q", hz, id)
	}
	if hz.Runs[0].TotalIncidents != len(res.Health) {
		t.Errorf("/healthz total_incidents = %d, want %d", hz.Runs[0].TotalIncidents, len(res.Health))
	}

	// /progress: done, with the final instruction counts.
	code, body = get(t, srv.URL()+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var prs []live.ProgressRun
	if err := json.Unmarshal(body, &prs); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if len(prs) != 1 || prs[0].Run != id || prs[0].State != "done" {
		t.Fatalf("/progress = %+v, want one done run %q", prs, id)
	}
	// Cores may retire a few instructions past the target in their final
	// dispatch burst, so "complete" means done >= total.
	if prs[0].InstrDone < prs[0].InstrTotal || prs[0].InstrTotal == 0 || prs[0].Pct < 100 {
		t.Errorf("/progress final counts = %+v, want done >= total and >= 100%%", prs[0])
	}
	if prs[0].Cycle == 0 {
		t.Errorf("/progress cycle = 0, want last epoch cycle")
	}

	// pprof rides along.
	if code, _ := get(t, srv.URL()+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

// checkBankShape requires /metrics to carry at least one nonzero
// silcfm_dram_bank_accesses line per device for run, each labeled with a
// channel and bank inside that device's geometry.
func checkBankShape(t *testing.T, metrics, run string, m config.Machine) {
	t.Helper()
	for _, dev := range []struct {
		name string
		cfg  config.DRAMConfig
	}{{"nm", m.NM}, {"fm", m.FM}} {
		channels, banks := dram.New(dev.cfg, sim.NewEngine()).Geometry()
		prefix := `silcfm_dram_bank_accesses{run="` + run + `",device="` + dev.name + `",`
		lines := 0
		for _, line := range strings.Split(metrics, "\n") {
			rest, ok := strings.CutPrefix(line, prefix)
			if !ok {
				continue
			}
			lines++
			var ch, bk int
			var v uint64
			if _, err := fmt.Sscanf(rest, `channel="%d",bank="%d"} %d`, &ch, &bk, &v); err != nil {
				t.Errorf("%s bank line %q: %v", dev.name, line, err)
				continue
			}
			if ch < 0 || ch >= channels || bk < 0 || bk >= banks || v == 0 {
				t.Errorf("%s bank line %q: want channel < %d, bank < %d and a nonzero count", dev.name, line, channels, banks)
			}
		}
		if lines == 0 {
			t.Errorf("/metrics has no silcfm_dram_bank_accesses line for %s", dev.name)
		}
	}
}

// publishState hands a synthetic epoch snapshot to a hook.
func publishState(hook func(telemetry.EpochState, health.Status), cycle uint64, open []health.Incident) {
	hook(telemetry.EpochState{
		Sample: &telemetry.Sample{Cycle: cycle},
		Mem:    &stats.Memory{},
		Lat:    stats.NewPathLatencies(),
		Done:   50, Total: 100,
	}, health.Status{Open: open})
}

func TestHealthzGoesUnhealthyWhileIncidentOpen(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()

	hook := srv.Registry().Hook("stress")
	inc := health.Incident{Kind: health.KindSwapThrash, FirstEpoch: 3, LastEpoch: 5, PeakSeverity: 2.5}
	publishState(hook, 10_000, []health.Incident{inc})

	code, body := get(t, srv.URL()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with open incident: status %d, want 503", code)
	}
	var hz live.Healthz
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if hz.Status != "incident" || len(hz.Runs) != 1 || len(hz.Runs[0].OpenIncidents) != 1 {
		t.Fatalf("/healthz = %+v, want one open incident", hz)
	}
	if got := hz.Runs[0].OpenIncidents[0]; got.Kind != inc.Kind || got.PeakSeverity != inc.PeakSeverity {
		t.Errorf("open incident round-trip = %+v, want %+v", got, inc)
	}
	if _, body := get(t, srv.URL()+"/metrics"); !strings.Contains(string(body), `silcfm_open_incidents{run="stress"} 1`) {
		t.Errorf("/metrics does not report the open incident")
	}

	// Incident closes on the next epoch: healthy again.
	publishState(hook, 20_000, nil)
	if code, _ := get(t, srv.URL()+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after incident closed: status %d, want 200", code)
	}

	// A late publish after Done must not resurrect the run.
	srv.Registry().Done("stress", nil)
	publishState(hook, 30_000, []health.Incident{inc})
	if code, _ := get(t, srv.URL()+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after Done: status %d, want 200 (late publish ignored)", code)
	}
}

func TestMetricsEscapesHardLabelValues(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()
	hook := srv.Registry().Hook(`run"with\specials`)
	hook(telemetry.EpochState{
		Sample: &telemetry.Sample{
			Cycle:  1000,
			Gauges: []mem.Gauge{{Name: `gauge\name"quoted`, Value: 7}},
		},
		Mem:  &stats.Memory{},
		Lat:  stats.NewPathLatencies(),
		Done: 1, Total: 2,
	}, health.Status{})

	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := live.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics with special label values is not valid exposition: %v", err)
	}
	// Exactly one level of escaping: backslash doubled, quote escaped.
	want := `silcfm_scheme_gauge{run="run\"with\\specials",name="gauge\\name\"quoted"} 7`
	if !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing single-escaped line %q in:\n%s", want, body)
	}
}

// TestCloseIsGracefulWithSlowClient: Close returns within its shutdown
// bound while a long request is still in flight (a 30 s CPU profile, the
// longest-lived handler the hub serves) and ends that request.
func TestCloseIsGracefulWithSlowClient(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}

	// The profile handler sends nothing until its 30 s window ends, so the
	// request stays in flight; wait until the server is handling it.
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL() + "/debug/pprof/profile?seconds=30")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !profiling() {
		if time.Now().After(deadline) {
			t.Fatal("profile request never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("Close took %v with a request in flight, want graceful shutdown under ~2s", d)
	}
	select {
	case <-errc: // the in-flight request ended, with or without an error
	case <-time.After(3 * time.Second):
		t.Error("the in-flight profile request outlived Close")
	}
}

// profiling reports whether the server is handling a /debug/pprof/profile
// request: some goroutine is inside the handler.
func profiling() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "net/http/pprof.Profile(")
}

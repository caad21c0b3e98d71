package live_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/health"
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
	"silcfm_fleet_runs", "silcfm_fleet_runs_done", "silcfm_fleet_mcyc_per_sec",
	"silcfm_fleet_eta_seconds", "silcfm_fleet_open_incidents",
	"silcfm_fleet_sse_subscribers", "silcfm_fleet_sse_dropped_total",
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

	// /: the embedded dashboard with its event wiring; other unknown
	// paths 404 instead of falling through to it.
	code, body := get(t, srv.URL()+"/")
	if code != http.StatusOK {
		t.Fatalf("/ status %d", code)
	}
	for _, want := range []string{"<title>silcfm fleet</title>", "EventSource", "/api/runs", "bank heat", "function heatmap"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if code, _ := get(t, srv.URL()+"/no-such-page"); code != http.StatusNotFound {
		t.Errorf("/no-such-page status %d, want 404", code)
	}

	// /api/runs: the fleet counts the run, and its DRAM snapshot is one
	// [nm, fm] pair with a cell per bank.
	code, body = get(t, srv.URL()+"/api/runs")
	if code != http.StatusOK {
		t.Fatalf("/api/runs status %d", code)
	}
	var api struct {
		Fleet live.Fleet       `json:"fleet"`
		Runs  []live.RunStatus `json:"runs"`
	}
	if err := json.Unmarshal(body, &api); err != nil {
		t.Fatalf("/api/runs not JSON: %v", err)
	}
	if len(api.Runs) != 1 || api.Fleet.Runs != len(api.Runs) {
		t.Fatalf("/api/runs: fleet.runs=%d, %d runs listed; want 1 and 1", api.Fleet.Runs, len(api.Runs))
	}
	dram := api.Runs[0].Dram
	if len(dram) != 2 || dram[0].Device != "nm" || dram[1].Device != "fm" {
		t.Fatalf("/api/runs dram = %+v, want [nm, fm]", dram)
	}
	for _, d := range dram {
		cells := d.Channels * d.BanksPerChannel
		if cells <= 0 || len(d.BankAccesses) != cells || len(d.BankConflicts) != cells {
			t.Errorf("/api/runs %s: %dch x %dbk but %d/%d bank cells",
				d.Device, d.Channels, d.BanksPerChannel, len(d.BankAccesses), len(d.BankConflicts))
		}
	}

	// /events: an SSE stream that opens with an init snapshot of the same
	// runs.
	checkEventsInit(t, srv.URL()+"/events", len(api.Runs))

	// /metrics: valid exposition with every required family, and every
	// cumulative counter equal to the run's final total (Done comes after
	// the final partial epoch flush, so the last published snapshot is the
	// end-of-run state).
	code, body = get(t, srv.URL()+"/metrics")
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

// checkEventsInit opens the SSE stream at url and checks its content type
// and that its first frame is an init snapshot listing runs runs.
func checkEventsInit(t *testing.T, url string, runs int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("/events: status %d, content type %q; want 200 text/event-stream", resp.StatusCode, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var event, data string
	for sc.Scan() && sc.Text() != "" {
		if v, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			event = v
		} else if v, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			data = v
		}
	}
	if event != "init" {
		t.Fatalf("/events: first frame is %q (%v), want init", event, sc.Err())
	}
	var init struct {
		Runs []live.RunStatus `json:"runs"`
	}
	if err := json.Unmarshal([]byte(data), &init); err != nil {
		t.Fatalf("/events init frame: %v", err)
	}
	if len(init.Runs) != runs {
		t.Errorf("/events init lists %d runs, /api/runs %d", len(init.Runs), runs)
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

// TestServerDoesNotPerturbSimulation is the live-server leg of the
// telemetry-inertness invariant: a run attached to the HTTP server finishes
// at exactly the same cycle with exactly the same counters and health
// incidents as the same run with no server.
func TestServerDoesNotPerturbSimulation(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()

	// Scrape concurrently while the run publishes, to exercise the mutex
	// path rather than an idle server.
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				resp, err := http.Get(srv.URL() + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()

	spec := tinySpec()
	done := harness.AttachLive(&spec, srv.Registry(), "perturb")
	with, err := harness.Run(spec)
	done(with)
	close(stop)
	<-scraped
	if err != nil {
		t.Fatalf("run with server: %v", err)
	}

	without, err := harness.Run(tinySpec())
	if err != nil {
		t.Fatalf("run without server: %v", err)
	}

	if with.Cycles != without.Cycles {
		t.Errorf("live server changed Cycles: %d vs %d", with.Cycles, without.Cycles)
	}
	if with.Mem != without.Mem {
		t.Errorf("live server changed memory counters:\nwith    %+v\nwithout %+v", with.Mem, without.Mem)
	}
	if !reflect.DeepEqual(with.Health, without.Health) {
		t.Errorf("live server changed health incidents:\nwith    %+v\nwithout %+v", with.Health, without.Health)
	}
	if len(with.Health) == 0 {
		t.Error("run raised no health incidents; the incident comparison is vacuous")
	}
}

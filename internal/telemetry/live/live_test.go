package live_test

import (
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
	"silcfm/internal/telemetry/live"
)

// tinySpec is a small SILC-FM run, optionally publishing to a live server.
func tinySpec(publish func(telemetry.EpochState, health.Status)) harness.Spec {
	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	return harness.Spec{
		Machine:      m,
		Workload:     "milc",
		InstrPerCore: 100_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
		Telemetry:    &telemetry.Config{EpochCycles: 20_000},
		Publish:      publish,
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

func TestServerEndpointsAfterRealRun(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()

	const id = "small/milc"
	res, err := harness.Run(tinySpec(srv.Registry().Hook(id)))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	srv.Registry().Done(id, res.Health)

	// /metrics: valid exposition, and the cumulative counters match the
	// run's final totals (Done comes after the final partial epoch flush,
	// so the last published snapshot is the end-of-run state).
	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := live.ValidateExposition(body); err != nil {
		t.Errorf("/metrics is not valid Prometheus exposition: %v", err)
	}
	for _, want := range []string{
		fmt.Sprintf(`silcfm_llc_misses_total{run="%s"} %d`, id, res.Mem.LLCMisses),
		fmt.Sprintf(`silcfm_serviced_nm_total{run="%s"} %d`, id, res.Mem.ServicedNM),
		fmt.Sprintf(`silcfm_swaps_in_total{run="%s"} %d`, id, res.Mem.SwapsIn),
		fmt.Sprintf(`silcfm_run_finished{run="%s"} 1`, id),
		"# TYPE silcfm_demand_latency_cycles gauge",
		`silcfm_scheme_gauge{run="small/milc",name="locked_frames"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz: finished run, no open incidents, 200.
	code, body = get(t, srv.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	var hz live.Healthz
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
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
// telemetry-inertness invariant: a run publishing every epoch to the HTTP
// server finishes at exactly the same cycle with exactly the same counters
// and health incidents as the same run with no server.
func TestServerDoesNotPerturbSimulation(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()

	// Scrape concurrently while the run publishes, to exercise the mutex
	// path rather than an idle server.
	stop := make(chan struct{})
	go func() {
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

	with, err := harness.Run(tinySpec(srv.Registry().Hook("perturb")))
	close(stop)
	if err != nil {
		t.Fatalf("run with server: %v", err)
	}

	without, err := harness.Run(tinySpec(nil))
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

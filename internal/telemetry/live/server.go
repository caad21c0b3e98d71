package live

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"silcfm/internal/health"
	"silcfm/internal/telemetry/exemplar"
)

// shutdownTimeout bounds how long Close waits for in-flight scrapes and
// SSE streams to drain before resetting what's left.
const shutdownTimeout = 2 * time.Second

// Server is the thin HTTP view over a Registry: it owns the listener and
// the endpoint handlers, and nothing else — all run state lives in the
// registry, which sweep engines and job APIs can share without HTTP.
type Server struct {
	ln  net.Listener
	srv *http.Server
	reg *Registry
}

// New binds addr (host:port; ":0" picks a free port) and starts serving a
// fresh registry.
func New(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	s := &Server{ln: ln, reg: NewRegistry()}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleDashboard)
	mux.HandleFunc("/api/runs", s.handleRuns)
	mux.HandleFunc("/api/incidents", s.handleIncidents)
	mux.HandleFunc("/api/incidents/", s.handleIncident)
	mux.HandleFunc("/api/exemplars", s.handleExemplars)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Registry returns the run store this server views.
func (s *Server) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Addr returns the bound address (resolved port when addr was ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server gracefully: subscriber streams are closed (which
// drains the /events handlers), then in-flight scrapes get shutdownTimeout
// to finish before any stragglers are reset.
func (s *Server) Close() error {
	s.reg.Close()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) handleExemplars(w http.ResponseWriter, r *http.Request) {
	sets := s.reg.Exemplars()
	if sets == nil {
		sets = []ExemplarSet{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc, _ := json.MarshalIndent(struct {
		Runs []ExemplarSet `json:"runs"`
	}{sets}, "", "  ")
	w.Write(append(enc, '\n'))
}

func (s *Server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	incidents := s.reg.Incidents()
	if incidents == nil {
		incidents = []IncidentRef{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc, _ := json.MarshalIndent(struct {
		Incidents []IncidentRef `json:"incidents"`
	}{incidents}, "", "  ")
	w.Write(append(enc, '\n'))
}

func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/api/incidents/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		http.Error(w, "bad incident id", http.StatusBadRequest)
		return
	}
	b := s.reg.Bundle(id)
	if b == nil {
		http.Error(w, "no such incident bundle", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b.Encode(w)
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc, _ := json.MarshalIndent(struct {
		Fleet Fleet       `json:"fleet"`
		Runs  []RunStatus `json:"runs"`
	}{s.reg.Aggregate(), s.reg.Runs()}, "", "  ")
	w.Write(append(enc, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	g := s.reg
	g.mu.Lock()
	runs := g.sortedLocked()

	writeFamily := func(name, typ, help string, rows func(*runState) []string) {
		var lines []string
		for _, rs := range runs {
			lines = append(lines, rows(rs)...)
		}
		if len(lines) == 0 {
			return
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	runLabel := func(rs *runState) string { return `run="` + escapeLabel(rs.id) + `"` }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }

	writeFamily("silcfm_cycle", "gauge", "Simulated cycle at the last published epoch.",
		func(rs *runState) []string {
			return []string{fmt.Sprintf("silcfm_cycle{%s} %s", runLabel(rs), u(rs.cycle))}
		})
	writeFamily("silcfm_access_rate", "gauge", "Fraction of LLC misses serviced from near memory (paper Eq. 1).",
		func(rs *runState) []string {
			return []string{fmt.Sprintf("silcfm_access_rate{%s} %s", runLabel(rs), f(rs.mem.AccessRate()))}
		})
	// Every cumulative stats.Memory counter, one family each.
	if len(runs) > 0 {
		for i, c := range runs[0].mem.Counters() {
			i := i
			writeFamily("silcfm_"+c.Name+"_total", "counter", "Cumulative "+c.Name+" counter.",
				func(rs *runState) []string {
					cs := rs.mem.Counters()
					return []string{fmt.Sprintf("silcfm_%s_total{%s} %s", cs[i].Name, runLabel(rs), u(cs[i].Value))}
				})
		}
	}
	writeFamily("silcfm_queue_depth", "gauge", "Instantaneous device queue depth at the epoch boundary.",
		func(rs *runState) []string {
			return []string{
				fmt.Sprintf("silcfm_queue_depth{%s,device=\"nm\"} %d", runLabel(rs), rs.queueNM),
				fmt.Sprintf("silcfm_queue_depth{%s,device=\"fm\"} %d", runLabel(rs), rs.queueFM),
			}
		})
	writeFamily("silcfm_queue_depth_peak", "gauge", "Per-epoch queue-depth high-water mark.",
		func(rs *runState) []string {
			return []string{
				fmt.Sprintf("silcfm_queue_depth_peak{%s,device=\"nm\"} %d", runLabel(rs), rs.peakQueueNM),
				fmt.Sprintf("silcfm_queue_depth_peak{%s,device=\"fm\"} %d", runLabel(rs), rs.peakQueueFM),
			}
		})
	// DRAM introspection families: per-device epoch-windowed gauges plus the
	// per-bank access heatmap (the scrape-side view of the dashboard panel).
	dramFamily := func(name, help string, value func(DramDeviceStatus) string) {
		writeFamily(name, "gauge", help, func(rs *runState) []string {
			var out []string
			for _, d := range rs.dram {
				out = append(out, fmt.Sprintf("%s{%s,device=\"%s\"} %s", name, runLabel(rs), d.Device, value(d)))
			}
			return out
		})
	}
	dramFamily("silcfm_dram_row_hit_rate", "Epoch row-buffer hit rate per DRAM device.",
		func(d DramDeviceStatus) string { return f(d.RowHitRate) })
	dramFamily("silcfm_dram_bus_util", "Epoch data-bus busy share per DRAM device (bursts booked at issue may push it slightly past 1).",
		func(d DramDeviceStatus) string { return f(d.BusUtil) })
	dramFamily("silcfm_dram_bank_imbalance", "Epoch max-over-mean per-bank access imbalance per DRAM device.",
		func(d DramDeviceStatus) string { return f(d.BankImbalance) })
	dramFamily("silcfm_dram_row_conflicts", "Epoch row-buffer conflicts per DRAM device (precharge-then-activate).",
		func(d DramDeviceStatus) string { return u(d.RowConflicts) })
	writeFamily("silcfm_dram_bank_accesses", "gauge", "Epoch row activity per DRAM bank (hits+misses+conflicts).",
		func(rs *runState) []string {
			var out []string
			for _, d := range rs.dram {
				for i, v := range d.BankAccesses {
					if v == 0 {
						continue
					}
					ch, bk := i/d.BanksPerChannel, i%d.BanksPerChannel
					out = append(out, fmt.Sprintf("silcfm_dram_bank_accesses{%s,device=\"%s\",channel=\"%d\",bank=\"%d\"} %s",
						runLabel(rs), d.Device, ch, bk, u(v)))
				}
			}
			return out
		})
	// Label values are escaped exactly once: escapeLabel output goes inside
	// literal quotes. (%q would re-escape the backslashes it just added.)
	writeFamily("silcfm_scheme_gauge", "gauge", "Scheme-internal instantaneous gauges (mem.GaugeProvider).",
		func(rs *runState) []string {
			var out []string
			for _, g := range rs.gauges {
				out = append(out, fmt.Sprintf("silcfm_scheme_gauge{%s,name=\"%s\"} %s",
					runLabel(rs), escapeLabel(g.Name), f(g.Value)))
			}
			return out
		})
	writeFamily("silcfm_demand_latency_count", "counter", "Demand completions per service path.",
		func(rs *runState) []string {
			var out []string
			for _, p := range rs.lat {
				out = append(out, fmt.Sprintf("silcfm_demand_latency_count{%s,path=\"%s\"} %s",
					runLabel(rs), escapeLabel(p.Path), u(p.Count)))
			}
			return out
		})
	writeFamily("silcfm_demand_latency_cycles", "gauge", "Demand-latency percentile bounds per service path.",
		func(rs *runState) []string {
			// The worst captured tail exemplar per path annotates that
			// path's p99 line in OpenMetrics exemplar syntax
			// ("value # {labels} exemplar_value"), linking the quantile
			// bound to a concrete access (address + start cycle).
			worst := map[string]*exemplar.Exemplar{}
			for i := range rs.exemplars {
				e := &rs.exemplars[i]
				if _, ok := worst[e.Path]; !ok {
					worst[e.Path] = e // snapshots are worst-first per path
				}
			}
			var out []string
			for _, p := range rs.lat {
				for _, q := range []struct {
					q string
					v uint64
				}{{"0.5", p.P50}, {"0.95", p.P95}, {"0.99", p.P99}} {
					line := fmt.Sprintf("silcfm_demand_latency_cycles{%s,path=\"%s\",quantile=\"%s\"} %s",
						runLabel(rs), escapeLabel(p.Path), q.q, u(q.v))
					if e := worst[p.Path]; e != nil && q.q == "0.99" {
						line += fmt.Sprintf(" # {pa=\"0x%x\",cycle=\"%d\"} %s", e.PAddr, e.StartCycle, u(e.Latency))
					}
					out = append(out, line)
				}
			}
			return out
		})
	writeFamily("silcfm_open_incidents", "gauge", "Health incidents currently active (see /healthz).",
		func(rs *runState) []string {
			return []string{fmt.Sprintf("silcfm_open_incidents{%s} %d", runLabel(rs), len(rs.open))}
		})
	writeFamily("silcfm_run_finished", "gauge", "1 once the run has completed.",
		func(rs *runState) []string {
			v := 0
			if rs.finished {
				v = 1
			}
			return []string{fmt.Sprintf("silcfm_run_finished{%s} %d", runLabel(rs), v)}
		})

	// Fleet-level families: unlabeled aggregates over every run in the
	// registry, the scrape-side view of the dashboard's headline tiles.
	fl := g.aggregateLocked()
	g.mu.Unlock()

	fleetFamily := func(name, typ, help, value string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, value)
	}
	fleetFamily("silcfm_fleet_runs", "gauge", "Runs registered on this hub.", strconv.Itoa(fl.Runs))
	fleetFamily("silcfm_fleet_runs_done", "gauge", "Registered runs that have completed.", strconv.Itoa(fl.RunsDone))
	fleetFamily("silcfm_fleet_open_incidents", "gauge", "Open health incidents across running runs.", strconv.Itoa(fl.OpenIncidents))
	fleetFamily("silcfm_fleet_incidents_total", "counter", "Incidents across the fleet: closed totals of finished runs plus open counts of running ones.", strconv.Itoa(fl.TotalIncidents))
	fleetFamily("silcfm_fleet_mcyc_per_sec", "gauge", "Aggregate simulation throughput of the running runs, in Mcyc/s.", f(fl.McycPerSec))
	fleetFamily("silcfm_fleet_eta_seconds", "gauge", "Slowest running run's wall-clock ETA.", f(fl.EtaSeconds))
	fleetFamily("silcfm_fleet_sse_subscribers", "gauge", "Attached /events streams.", strconv.Itoa(fl.Subscribers))
	fleetFamily("silcfm_fleet_sse_dropped_total", "counter", "Event frames dropped by full subscriber queues.", u(fl.DroppedEvents))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// HealthzRun is one run's slice of the /healthz body.
type HealthzRun struct {
	Run            string            `json:"run"`
	Finished       bool              `json:"finished"`
	OpenIncidents  []health.Incident `json:"open_incidents"`
	TotalIncidents int               `json:"total_incidents"`
}

// Healthz is the /healthz response body.
type Healthz struct {
	Status string       `json:"status"` // "ok" or "incident"
	Runs   []HealthzRun `json:"runs"`
	// Rules is the detector's rule metadata: what each incident kind
	// means, the fixed threshold the detector fires it at (the same text
	// the run report and silcfm-postmortem print), and which counters to
	// read first (the dashboard's tooltip source).
	Rules []health.RuleInfo `json:"rules"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := Healthz{Status: "ok", Runs: []HealthzRun{}, Rules: health.Rules()}
	s.reg.mu.Lock()
	for _, rs := range s.reg.sortedLocked() {
		hr := HealthzRun{
			Run:            rs.id,
			Finished:       rs.finished,
			OpenIncidents:  append([]health.Incident{}, rs.open...),
			TotalIncidents: rs.totalIncidents,
		}
		if len(rs.open) > 0 {
			body.Status = "incident"
		}
		body.Runs = append(body.Runs, hr)
	}
	s.reg.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	if body.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc, _ := json.MarshalIndent(&body, "", "  ")
	w.Write(append(enc, '\n'))
}

// ProgressRun is one run's slice of the /progress body.
type ProgressRun struct {
	Run        string  `json:"run"`
	State      string  `json:"state"` // "running" or "done"
	Cycle      uint64  `json:"cycle"`
	InstrDone  uint64  `json:"instr_done"`
	InstrTotal uint64  `json:"instr_total"`
	Pct        float64 `json:"pct"`
	McycPerSec float64 `json:"mcyc_per_sec"`
	EtaSeconds float64 `json:"eta_seconds"`
	// ElapsedSeconds is wall time since the run registered; frozen at Done
	// (finished runs report total wall time, and McycPerSec their final
	// whole-run rate, rather than zeros).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	body := []ProgressRun{}
	for _, st := range s.reg.Runs() {
		body = append(body, ProgressRun{
			Run:            st.Run,
			State:          st.State,
			Cycle:          st.Cycle,
			InstrDone:      st.InstrDone,
			InstrTotal:     st.InstrTotal,
			Pct:            st.Pct,
			McycPerSec:     st.McycPerSec,
			EtaSeconds:     st.EtaSeconds,
			ElapsedSeconds: st.ElapsedSeconds,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc, _ := json.MarshalIndent(body, "", "  ")
	w.Write(append(enc, '\n'))
}

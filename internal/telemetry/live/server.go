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
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
)

// shutdownTimeout bounds how long Close waits for in-flight requests (a
// pprof profile or trace can run for many seconds) to drain before
// resetting what's left.
const shutdownTimeout = 2 * time.Second

// Server is the thin HTTP view over a Registry: it owns the listener and
// the endpoint handlers, and nothing else — all run state lives in the
// registry, which the sweep drivers share without HTTP.
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
	mux.HandleFunc("/api/incidents", s.handleIncidents)
	mux.HandleFunc("/api/incidents/", s.handleIncident)
	mux.HandleFunc("/api/exemplars", s.handleExemplars)
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

// Close stops the server gracefully: in-flight requests get
// shutdownTimeout to finish before any stragglers are reset.
func (s *Server) Close() error {
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
			return []string{fmt.Sprintf("silcfm_cycle{%s} %s", runLabel(rs), u(rs.sample.Cycle))}
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
				fmt.Sprintf("silcfm_queue_depth{%s,device=\"nm\"} %d", runLabel(rs), rs.sample.QueueNM),
				fmt.Sprintf("silcfm_queue_depth{%s,device=\"fm\"} %d", runLabel(rs), rs.sample.QueueFM),
			}
		})
	writeFamily("silcfm_queue_depth_peak", "gauge", "Per-epoch queue-depth high-water mark.",
		func(rs *runState) []string {
			return []string{
				fmt.Sprintf("silcfm_queue_depth_peak{%s,device=\"nm\"} %d", runLabel(rs), rs.sample.PeakQueueNM),
				fmt.Sprintf("silcfm_queue_depth_peak{%s,device=\"fm\"} %d", runLabel(rs), rs.sample.PeakQueueFM),
			}
		})
	// DRAM introspection families: per-device epoch-windowed gauges plus
	// per-bank accesses, published once a sample carries the bank feed.
	devices := [2]string{"nm", "fm"}
	dramFamily := func(name, help string, value func(*telemetry.Sample) [2]string) {
		writeFamily(name, "gauge", help, func(rs *runState) []string {
			if rs.sample.BankAccesses[stats.NM] == nil {
				return nil
			}
			var out []string
			for lv, v := range value(&rs.sample) {
				out = append(out, fmt.Sprintf("%s{%s,device=\"%s\"} %s", name, runLabel(rs), devices[lv], v))
			}
			return out
		})
	}
	dramFamily("silcfm_dram_row_hit_rate", "Epoch row-buffer hit rate per DRAM device.",
		func(sm *telemetry.Sample) [2]string { return [2]string{f(sm.RowHitRateNM), f(sm.RowHitRateFM)} })
	dramFamily("silcfm_dram_bus_util", "Epoch data-bus busy share per DRAM device (bursts booked at issue may push it slightly past 1).",
		func(sm *telemetry.Sample) [2]string { return [2]string{f(sm.BusUtilNM), f(sm.BusUtilFM)} })
	dramFamily("silcfm_dram_bank_imbalance", "Epoch max-over-mean per-bank access imbalance per DRAM device.",
		func(sm *telemetry.Sample) [2]string { return [2]string{f(sm.BankImbalanceNM), f(sm.BankImbalanceFM)} })
	dramFamily("silcfm_dram_row_conflicts", "Epoch row-buffer conflicts per DRAM device (precharge-then-activate).",
		func(sm *telemetry.Sample) [2]string { return [2]string{u(sm.RowConflictsNM), u(sm.RowConflictsFM)} })
	writeFamily("silcfm_dram_bank_accesses", "gauge", "Epoch row activity per DRAM bank (hits+misses+conflicts).",
		func(rs *runState) []string {
			var out []string
			for lv, banks := range rs.sample.BankAccesses {
				bpc := rs.sample.BanksPerChannel[lv]
				for i, v := range banks {
					if v == 0 {
						continue
					}
					out = append(out, fmt.Sprintf("silcfm_dram_bank_accesses{%s,device=\"%s\",channel=\"%d\",bank=\"%d\"} %s",
						runLabel(rs), devices[lv], i/bpc, i%bpc, u(v)))
				}
			}
			return out
		})
	// Label values are escaped exactly once: escapeLabel output goes inside
	// literal quotes. (%q would re-escape the backslashes it just added.)
	writeFamily("silcfm_scheme_gauge", "gauge", "Scheme-internal instantaneous gauges (mem.GaugeProvider).",
		func(rs *runState) []string {
			var out []string
			for _, g := range rs.sample.Gauges {
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
	g.mu.Unlock()

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
	// read first.
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

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	body := s.reg.Runs()
	w.Header().Set("Content-Type", "application/json")
	enc, _ := json.MarshalIndent(body, "", "  ")
	w.Write(append(enc, '\n'))
}

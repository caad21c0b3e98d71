// Command silcfm-experiments regenerates the tables and figures of the
// paper's evaluation section (§V).
//
// Usage:
//
//	silcfm-experiments -which all
//	silcfm-experiments -which fig7 -instr 1000000
//	silcfm-experiments -which fig9 -workloads milc,lbm,mcf
//
// With -which all, the Figure 6 and Figure 7 sweeps are run once each and
// shared by Figure 8 and the headline summary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/manifest"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/live"
)

// outFiles records every per-run output file the telemetry layer creates,
// so the summary can cross-link them by relative path.
type outFiles struct {
	mu   sync.Mutex
	byID map[string]map[string]string // "label/wl" -> kind -> relative path
}

func (o *outFiles) add(label, wl, kind, path string) {
	if rel, err := filepath.Rel(".", path); err == nil {
		path = rel
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.byID == nil {
		o.byID = map[string]map[string]string{}
	}
	id := label + "/" + wl
	if o.byID[id] == nil {
		o.byID[id] = map[string]string{}
	}
	o.byID[id][kind] = path
}

// table renders the recorded files as one row per run, one column per kind.
func (o *outFiles) table(kinds []string) *stats.Table {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := &stats.Table{
		Title:   "Per-run output files",
		Columns: append([]string{"run"}, kinds...),
	}
	ids := make([]string, 0, len(o.byID))
	for id := range o.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		row := []string{id}
		for _, k := range kinds {
			p := o.byID[id][k]
			if p == "" {
				p = "-"
			}
			row = append(row, p)
		}
		t.AddRow(row...)
	}
	return t
}

func main() {
	var (
		which = flag.String("which", "all", "experiment: table3, fig6, fig7, fig8, fig9, headline, all")
		instr = flag.Uint64("instr", 1_000_000, "base instructions per core (scaled by MPKI class)")
		wls   = flag.String("workloads", "", "comma-separated workload subset (default: all 14)")
		par   = flag.Int("par", 0, "parallel simulations (default GOMAXPROCS)")
		seed  = flag.Int64("seed", 0, "random seed")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")

		metricsDir   = flag.String("metrics-out", "", "write per-run epoch metrics into this directory as <label>_<workload>.jsonl")
		metricsEpoch = flag.Uint64("metrics-epoch", 0, "metrics sampling period in cycles (0 = default 200000)")
		traceDir     = flag.String("trace-out", "", "write per-run Perfetto movement traces into this directory as <label>_<workload>.json")
		traceLimit   = flag.Int("trace-limit", 0, "movement-trace ring buffer size in events (0 = default 262144)")
		profileDir   = flag.String("profile-out", "", "write per-run hotness profiles into this directory as <label>_<workload>.profile.jsonl")
		healthDir    = flag.String("health-out", "", "write per-run health incidents into this directory as <label>_<workload>.health.jsonl (baseline included)")
		pmDir        = flag.String("postmortem-out", "", "write per-run postmortem bundles into this directory under <label>_<workload>/ (only runs that opened an incident)")
		progress     = flag.Bool("progress", false, "print one line per completed run to stderr")
		shadowOn     = flag.Bool("shadow", false, "run the continuous shadow-data integrity checker on every run (slower)")
		manifestOut  = flag.String("manifest-out", "", "write a run manifest covering every table3/fig6/fig7 run to this file")
		listen       = flag.String("listen", "", "serve live observability HTTP on this address (dashboard, /api/runs, /events, /metrics, /healthz, /progress, /debug/pprof)")
	)
	flag.Parse()

	var files outFiles
	m := config.Default()
	if *seed != 0 {
		m.Seed = *seed
	}
	cfg := harness.ExpConfig{
		Machine:      m,
		InstrPerCore: *instr,
		Parallelism:  *par,
		ShadowCheck:  *shadowOn,
	}
	if *wls != "" {
		cfg.Workloads = strings.Split(*wls, ",")
	}
	if *progress {
		cfg.Progress = os.Stderr
	}
	if *listen != "" {
		srv, err := live.New(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "live:", srv.URL())
		cfg.Live = srv
		defer srv.Close()
	}
	for _, dir := range []string{*healthDir, *pmDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-experiments:", err)
			os.Exit(1)
		}
	}
	// writeCell records one finished run's incident outputs: its health
	// JSONL (every cell, healthy ones included — an empty file is evidence
	// too) and its postmortem bundle directory (only cells that captured).
	writeCell := func(label, wl string, r *harness.Result) {
		if *healthDir != "" {
			path := filepath.Join(*healthDir, label+"_"+wl+".health.jsonl")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "silcfm-experiments:", err)
				os.Exit(1)
			}
			werr := health.WriteJSONL(f, r.Health)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "silcfm-experiments:", werr)
				os.Exit(1)
			}
			files.add(label, wl, "health", path)
		}
		if *pmDir != "" && len(r.Bundles) > 0 {
			dir := filepath.Join(*pmDir, label+"_"+wl)
			if _, err := flightrec.WriteDir(dir, r.Bundles); err != nil {
				fmt.Fprintln(os.Stderr, "silcfm-experiments:", err)
				os.Exit(1)
			}
			files.add(label, wl, "postmortem", dir)
		}
	}
	if *metricsDir != "" || *traceDir != "" || *profileDir != "" {
		for _, dir := range []string{*metricsDir, *traceDir, *profileDir} {
			if dir == "" {
				continue
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "silcfm-experiments:", err)
				os.Exit(1)
			}
		}
		// A file that cannot be created fails its run (and the driver);
		// Sweep closes the files already opened into tc.
		cfg.Telemetry = func(label, wl string) (*telemetry.Config, error) {
			tc := &telemetry.Config{EpochCycles: *metricsEpoch, TraceLimit: *traceLimit}
			name := label + "_" + wl
			for _, out := range []struct {
				dir, suffix, kind string
				w                 *io.Writer
			}{
				{*metricsDir, ".jsonl", "metrics", &tc.MetricsW},
				{*traceDir, ".json", "trace", &tc.TraceW},
				{*profileDir, ".profile.jsonl", "profile", &tc.ProfileW},
			} {
				if out.dir == "" {
					continue
				}
				path := filepath.Join(out.dir, name+out.suffix)
				f, err := os.Create(path)
				if err != nil {
					return tc, err
				}
				*out.w = f
				files.add(label, wl, out.kind, path)
			}
			return tc, nil
		}
	}

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t)
		}
	}
	fail := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "silcfm-experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(t0).Round(time.Second))
	}

	man := manifest.New("silcfm-experiments", "")
	addSweep := func(figure string, sw *harness.SweepResult) {
		if sw == nil {
			return
		}
		for wl, r := range sw.Baseline {
			if *manifestOut != "" {
				man.Add(manifest.FromResult(figure+"/baseline/"+wl, r))
			}
			writeCell("baseline", wl, r)
		}
		for label, runs := range sw.Runs {
			for wl, r := range runs {
				if *manifestOut != "" {
					man.Add(manifest.FromResult(figure+"/"+label+"/"+wl, r))
				}
				writeCell(label, wl, r)
			}
		}
	}

	sel := strings.ToLower(*which)
	all := sel == "all"

	if all || sel == "table3" {
		timed("table3", func() {
			t, runs, err := harness.TableIII(cfg)
			fail("table3", err)
			emit(t)
			for wl, r := range runs {
				if *manifestOut != "" {
					man.Add(manifest.FromResult("table3/base/"+wl, r))
				}
				writeCell("baseline", wl, r)
			}
		})
	}

	var f6, f7 *harness.SweepResult
	if all || sel == "fig6" || sel == "headline" {
		timed("fig6", func() {
			sw, t, err := harness.Figure6(cfg)
			fail("fig6", err)
			f6 = sw
			if all || sel == "fig6" {
				emit(t)
				fmt.Println(sw.WallFooter())
			}
			addSweep("fig6", sw)
		})
	}
	if all || sel == "fig7" || sel == "fig8" || sel == "headline" {
		timed("fig7", func() {
			sw, t, err := harness.Figure7(cfg)
			fail("fig7", err)
			f7 = sw
			if all || sel == "fig7" {
				emit(t)
				fmt.Println(sw.WallFooter())
			}
			addSweep("fig7", sw)
		})
	}
	if all || sel == "fig8" {
		emit(harness.Figure8(f7))
	}
	if all || sel == "fig9" {
		timed("fig9", func() {
			t, _, err := harness.Figure9(cfg)
			fail("fig9", err)
			emit(t)
		})
	}
	if all || sel == "headline" {
		h := harness.ComputeHeadline(f6, f7)
		fmt.Println("Headline numbers (paper abstract):")
		fmt.Println(h.String())
	}

	if *manifestOut != "" {
		if err := man.WriteFile(*manifestOut); err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-experiments:", err)
			os.Exit(1)
		}
		if rel, err := filepath.Rel(".", *manifestOut); err == nil {
			fmt.Printf("\nmanifest:           %s (%d entries)\n", rel, len(man.Entries))
		} else {
			fmt.Printf("\nmanifest:           %s (%d entries)\n", *manifestOut, len(man.Entries))
		}
	}
	// Cross-link the per-run output files so offender/profile/metrics
	// artifacts are discoverable from the summary itself.
	if len(files.byID) > 0 {
		fmt.Println()
		fmt.Println(files.table([]string{"metrics", "trace", "profile", "health", "postmortem"}))
	}
}

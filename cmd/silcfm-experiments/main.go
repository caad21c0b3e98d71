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
	"os"
	"strings"
	"time"

	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/manifest"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry/live"
)

func main() {
	var (
		which = flag.String("which", "all", "experiment: table3, fig6, fig7, fig8, fig9, headline, all")
		instr = flag.Uint64("instr", 1_000_000, "base instructions per core (scaled by MPKI class)")
		wls   = flag.String("workloads", "", "comma-separated workload subset (default: all 14)")
		par   = flag.Int("par", 0, "parallel simulations (default GOMAXPROCS)")
		seed  = flag.Int64("seed", 0, "random seed")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")

		metricsDir   = flag.String("metrics-out", "", "write per-run epoch metrics into this directory as <sweep>_<label>_<workload>.jsonl")
		metricsEpoch = flag.Uint64("metrics-epoch", 0, "metrics sampling period in cycles (0 = default 200000)")
		traceDir     = flag.String("trace-out", "", "write per-run Perfetto movement traces into this directory as <sweep>_<label>_<workload>.json")
		traceLimit   = flag.Int("trace-limit", 0, "movement-trace ring buffer size in events (0 = default 262144)")
		profileDir   = flag.String("profile-out", "", "write per-run hotness profiles into this directory as <sweep>_<label>_<workload>.profile.jsonl")
		healthDir    = flag.String("health-out", "", "write per-run health incidents into this directory as <sweep>_<label>_<workload>.health.jsonl (baseline included)")
		pmDir        = flag.String("postmortem-out", "", "write per-run postmortem bundles into this directory under <sweep>_<label>_<workload>/ (bundles only from runs that opened an incident)")
		progress     = flag.Bool("progress", false, "print one line per completed run to stderr")
		shadowOn     = flag.Bool("shadow", false, "run the continuous shadow-data integrity checker on every run (slower)")
		manifestOut  = flag.String("manifest-out", "", "write a run manifest covering every run to this file")
		listen       = flag.String("listen", "", live.ListenUsage)
	)
	flag.Parse()

	m := config.Default()
	if *seed != 0 {
		m.Seed = *seed
	}
	cfg := harness.ExpConfig{
		Machine:      m,
		InstrPerCore: *instr,
		Parallelism:  *par,
		ShadowCheck:  *shadowOn,
		Out: harness.Outputs{
			Metrics:    *metricsDir,
			Trace:      *traceDir,
			Profile:    *profileDir,
			Health:     *healthDir,
			Postmortem: *pmDir,
		},
		EpochCycles: *metricsEpoch,
		TraceLimit:  *traceLimit,
	}
	if *wls != "" {
		cfg.Workloads = strings.Split(*wls, ",")
	}
	if *progress {
		cfg.Progress = os.Stderr
	}
	fail := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "silcfm-experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *listen != "" {
		srv, err := live.New(*listen)
		fail("listen", err)
		fmt.Fprintln(os.Stderr, "live:", srv.URL())
		cfg.Live = srv
		defer srv.Close()
	}
	emit := func(t *stats.Table) {
		if *csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t)
		}
	}
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(t0).Round(time.Second))
	}

	// sweeps collects every sweep run, for the manifest and the per-run
	// file table.
	var sweeps []*harness.SweepResult
	sel := strings.ToLower(*which)
	all := sel == "all"

	if all || sel == "table3" {
		timed("table3", func() {
			t, sw, err := harness.TableIII(cfg)
			fail("table3", err)
			emit(t)
			sweeps = append(sweeps, sw)
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
			sweeps = append(sweeps, sw)
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
			sweeps = append(sweeps, sw)
		})
	}
	if all || sel == "fig8" {
		emit(harness.Figure8(f7))
	}
	if all || sel == "fig9" {
		timed("fig9", func() {
			t, sws, err := harness.Figure9(cfg)
			fail("fig9", err)
			emit(t)
			sweeps = append(sweeps, sws...)
		})
	}
	if all || sel == "headline" {
		h := harness.ComputeHeadline(f6, f7)
		fmt.Println("Headline numbers (paper abstract):")
		fmt.Println(h.String())
	}

	// One loop over every cell: its manifest entry and its output files
	// share the cell id.
	man := manifest.New("silcfm-experiments", "")
	files := &stats.Table{
		Title:   "Per-run output files",
		Columns: []string{"run", "metrics", "trace", "profile", "health", "postmortem"},
	}
	for _, sw := range sweeps {
		for _, c := range sw.Cells() {
			man.Add(manifest.FromResult(c.ID, c.Result))
			out := c.Result.Spec.Out
			if out == (harness.Outputs{}) {
				continue
			}
			// Run creates every postmortem directory up front; list only
			// the ones that received a bundle, so the column still tells
			// which cells opened an incident.
			if len(c.Result.Bundles) == 0 {
				out.Postmortem = ""
			}
			row := []string{c.ID}
			for _, p := range []string{out.Metrics, out.Trace, out.Profile, out.Health, out.Postmortem} {
				if p == "" {
					p = "-"
				}
				row = append(row, p)
			}
			files.AddRow(row...)
		}
	}
	if *manifestOut != "" {
		fail("manifest", man.WriteFile(*manifestOut))
		fmt.Printf("\nmanifest:           %s (%d entries)\n", *manifestOut, len(man.Entries))
	}
	// Cross-link the per-run output files so offender/profile/metrics
	// artifacts are discoverable from the summary itself.
	if len(files.Rows) > 0 {
		fmt.Println()
		fmt.Println(files)
	}
}

// Command silcfm-experiments regenerates the tables and figures of the
// paper's evaluation section (§V).
//
// Usage:
//
//	silcfm-experiments -which all
//	silcfm-experiments -which fig7 -instr 1000000
//	silcfm-experiments -which fig9 -workloads milc,lbm,mcf
//
// Everything selected comes from one plan (harness.RunFigures): a cell
// several figures share, such as the no-NM baseline, simulates once under
// the id of the first of fig7, fig6, table3, fig9-16, fig9-8, fig9-4 that
// needs it, so -which all runs 22 cells per workload, not 32.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams injected; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("silcfm-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which = fs.String("which", "all", "experiment: table3, fig6, fig7, fig8, fig9, headline, all")
		instr = fs.Uint64("instr", 1_000_000, "base instructions per core (scaled by MPKI class)")
		wls   = fs.String("workloads", "", "comma-separated workload subset (default: all 14)")
		par   = fs.Int("par", 0, "parallel simulations (default GOMAXPROCS)")
		seed  = fs.Int64("seed", 0, "random seed")
		csv   = fs.Bool("csv", false, "emit CSV instead of aligned tables")

		metricsDir   = fs.String("metrics-out", "", "write per-run epoch metrics into this directory as <sweep>_<label>_<workload>.jsonl")
		metricsEpoch = fs.Uint64("metrics-epoch", 0, "metrics sampling period in cycles (0 = default 200000)")
		traceDir     = fs.String("trace-out", "", "write per-run Perfetto movement traces into this directory as <sweep>_<label>_<workload>.json")
		traceLimit   = fs.Int("trace-limit", 0, "movement-trace ring size in events, oldest dropped first (0 = default 262144); memory grows with the events kept, 32 B each")
		profileDir   = fs.String("profile-out", "", "write per-run hotness profiles into this directory as <sweep>_<label>_<workload>.profile.jsonl")
		healthDir    = fs.String("health-out", "", "write per-run health incidents into this directory as <sweep>_<label>_<workload>.health.jsonl (baseline included)")
		pmDir        = fs.String("postmortem-out", "", "write per-run postmortem bundles into this directory under <sweep>_<label>_<workload>/ (bundles only from runs that opened an incident)")
		progress     = fs.Bool("progress", false, "print one line per completed run to stderr")
		shadowOn     = fs.Bool("shadow", false, "run the continuous shadow-data integrity checker on every run (slower)")
		manifestOut  = fs.String("manifest-out", "", "write a run manifest covering every run to this file")
		listen       = fs.String("listen", "", live.ListenUsage)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceLimit < 0 {
		fmt.Fprintf(stderr, "silcfm-experiments: -trace-limit %d is negative (0 selects the default)\n", *traceLimit)
		return 2
	}
	emit := func(t *stats.Table) {
		if *csv {
			fmt.Fprintf(stdout, "# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Fprintln(stdout, t)
		}
	}
	// Each -which name in print order: the figure sweeps it reads and
	// what it prints from them.
	experiments := []struct {
		name  string
		reads []string
		print func(*harness.Figures)
	}{
		{"table3", []string{"table3"}, func(f *harness.Figures) { emit(f.TableIII()) }},
		{"fig6", []string{"fig6"}, func(f *harness.Figures) { emit(f.Figure6()); fmt.Fprintln(stdout, f.Fig6.WallFooter()) }},
		{"fig7", []string{"fig7"}, func(f *harness.Figures) { emit(f.Figure7()); fmt.Fprintln(stdout, f.Fig7.WallFooter()) }},
		{"fig8", []string{"fig7"}, func(f *harness.Figures) { emit(harness.Figure8(f.Fig7)) }},
		{"fig9", []string{"fig9"}, func(f *harness.Figures) { emit(f.Figure9()) }},
		{"headline", []string{"fig6", "fig7"}, func(f *harness.Figures) {
			fmt.Fprintf(stdout, "Headline numbers (paper abstract):\n%s\n", harness.ComputeHeadline(f.Fig6, f.Fig7).Text)
		}},
	}
	sel := strings.ToLower(*which)
	var names, reads []string
	for _, e := range experiments {
		names = append(names, e.name)
		if sel == "all" || sel == e.name {
			reads = append(reads, e.reads...)
		}
	}
	if reads == nil {
		fmt.Fprintf(stderr, "silcfm-experiments: unknown -which %q (valid: %s, all)\n", *which, strings.Join(names, ", "))
		return 2
	}

	m := config.Default()
	if *seed != 0 {
		m.Seed = *seed
	}
	cfg := harness.ExpConfig{
		Machine:      m,
		InstrPerCore: *instr,
		Parallelism:  *par,
		ShadowCheck:  *shadowOn,
		Out:          harness.Outputs{Metrics: *metricsDir, Trace: *traceDir, Profile: *profileDir, Health: *healthDir, Postmortem: *pmDir},
		EpochCycles:  *metricsEpoch,
		TraceLimit:   *traceLimit,
	}
	if *wls != "" {
		cfg.Workloads = strings.Split(*wls, ",")
	}
	if *progress {
		cfg.Progress = stderr
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "silcfm-experiments:", err)
		return 1
	}
	if *listen != "" {
		srv, err := live.New(*listen)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, "live:", srv.URL())
		cfg.Live = srv
		defer srv.Close()
	}
	t0 := time.Now()
	figs, err := harness.RunFigures(cfg, reads...)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "[%d runs done in %v]\n", len(figs.Cells), time.Since(t0).Round(time.Second))

	for _, e := range experiments {
		if sel == "all" || sel == e.name {
			e.print(figs)
		}
	}

	// One loop over every distinct cell: its manifest entry and its output
	// files share the cell id.
	man := manifest.New("silcfm-experiments", "")
	files := &stats.Table{
		Title:   "Per-run output files",
		Columns: []string{"run", "metrics", "trace", "profile", "health", "postmortem"},
	}
	for _, c := range figs.Cells {
		man.Add(manifest.FromResult(c.ID, c.Result))
		out := c.Result.Spec.Out
		if out == (harness.Outputs{}) {
			continue
		}
		// Run creates every postmortem directory up front; list only the
		// ones that received a bundle, so the column still tells which
		// cells opened an incident.
		if len(c.Result.Bundles) == 0 {
			out.Postmortem = ""
		}
		row := []string{c.ID}
		for _, p := range []string{out.Metrics, out.Trace, out.Profile, out.Health, out.Postmortem} {
			row = append(row, cmp.Or(p, "-"))
		}
		files.AddRow(row...)
	}
	if *manifestOut != "" {
		if err := man.WriteFile(*manifestOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nmanifest:           %s (%d entries)\n", *manifestOut, len(man.Entries))
	}
	// Cross-link the per-run output files so offender/profile/metrics
	// artifacts are discoverable from the summary itself.
	if len(files.Rows) > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, files)
	}
	return 0
}

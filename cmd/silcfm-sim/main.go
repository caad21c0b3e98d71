// Command silcfm-sim runs one flat-memory simulation and prints its
// statistics.
//
// Usage:
//
//	silcfm-sim -scheme silc -workload mcf -instr 1000000
//	silcfm-sim -scheme silc -workload milc -compare   # also run the baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"silcfm"
	"silcfm/internal/health"
	"silcfm/internal/manifest"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry/live"
)

func main() {
	var (
		scheme   = flag.String("scheme", "silc", "scheme: base, rand, hma, cam, camp, pom, silc")
		wl       = flag.String("workload", "mcf", "workload: "+strings.Join(silcfm.Workloads(), ", "))
		instr    = flag.Uint64("instr", 1_000_000, "instructions per core")
		scale    = flag.Bool("scale-instr", true, "scale instructions by MPKI class")
		cores    = flag.Int("cores", 0, "core count (0 = Table II default of 16)")
		nm       = flag.Uint64("nm", 0, "NM capacity in MiB (0 = default 128)")
		fm       = flag.Uint64("fm", 0, "FM capacity in MiB (0 = default 512)")
		seed     = flag.Int64("seed", 0, "random seed (0 = default)")
		compare  = flag.Bool("compare", false, "also run the no-NM baseline and report speedup")
		noLock   = flag.Bool("no-lock", false, "disable SILC-FM locking")
		noBypass = flag.Bool("no-bypass", false, "disable SILC-FM bypassing")
		ways     = flag.Int("ways", 4, "SILC-FM associativity (1, 2, 4)")
		trace    = flag.String("trace", "", "replay a trace file instead of the synthetic workload")
		mix      = flag.String("mix", "", "comma-separated heterogeneous mix (core i runs mix[i mod n])")
		foot     = flag.Int("footscale", 0, "divide workload footprints by N (for small -nm/-fm machines)")
		shadowOn = flag.Bool("shadow", false, "run the continuous shadow-data integrity checker (slower)")

		metricsOut   = flag.String("metrics-out", "", "stream epoch time-series metrics to this file (JSONL; .csv extension switches to CSV)")
		metricsEpoch = flag.Uint64("metrics-epoch", 0, "metrics sampling period in cycles (0 = default 200000)")
		traceOut     = flag.String("trace-out", "", "write a Chrome/Perfetto trace of movement events to this file")
		traceLimit   = flag.Int("trace-limit", 0, "movement-trace ring size in events, oldest dropped first (0 = default 262144); memory grows with the events kept, 32 B each")
		progress     = flag.Bool("progress", false, "print a progress line per metrics epoch to stderr")
		profileOut   = flag.String("profile-out", "", "write the per-block/per-PC hotness profile to this file (JSONL)")
		profileTopK  = flag.Int("profile-topk", 0, "print the K hottest blocks and PCs after the run (0 = off)")
		healthOut    = flag.String("health-out", "", "write the run's health incidents to this file (JSONL)")
		pmOut        = flag.String("postmortem-out", "", "write incident postmortem bundles into this directory (bundle-NNN.json; render with silcfm-postmortem)")
		exemplarsOut = flag.String("exemplars-out", "", "write the captured tail exemplars (worst-K accesses per path) to this file (JSONL)")
		listen       = flag.String("listen", "", live.ListenUsage)
		linger       = flag.Duration("listen-linger", 0, "keep the -listen server up this long after the run completes")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulator process to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile of the simulator process to this file")

		jsonOut     = flag.Bool("json", false, "emit the report as canonical JSON instead of text")
		manifestOut = flag.String("manifest-out", "", "write a run manifest to this file (with -compare, both legs)")
	)
	flag.Parse()
	if *traceLimit < 0 {
		fmt.Fprintf(os.Stderr, "silcfm-sim: -trace-limit %d is negative (0 selects the default)\n", *traceLimit)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-sim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-sim:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "silcfm-sim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "silcfm-sim:", err)
			}
		}()
	}

	// When replaying a trace, the workload name defaults to the trace's
	// own label unless -workload was given explicitly.
	if *trace != "" {
		explicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workload" {
				explicit = true
			}
		})
		if !explicit {
			*wl = ""
		}
	}

	opts := silcfm.Options{
		Scheme:            silcfm.Scheme(*scheme),
		Workload:          *wl,
		TracePath:         *trace,
		Mix:               splitNonEmpty(*mix),
		InstrPerCore:      *instr,
		ScaleInstrByClass: *scale,
		Cores:             *cores,
		NMCapacity:        *nm << 20,
		FMCapacity:        *fm << 20,
		FootprintScaleDen: *foot,
		ShadowCheck:       *shadowOn,
		MetricsOut:        *metricsOut,
		MetricsEpoch:      *metricsEpoch,
		TraceOut:          *traceOut,
		TraceLimit:        *traceLimit,
		ProfileOut:        *profileOut,
		ProfileTopK:       *profileTopK,
		HealthOut:         *healthOut,
		PostmortemOut:     *pmOut,
		ExemplarsOut:      *exemplarsOut,
		Seed:              *seed,
	}
	if *progress {
		opts.ProgressOut = os.Stderr
	}
	if *listen != "" {
		srv, err := silcfm.Serve(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-sim:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "live:", srv.URL())
		opts.Live = srv
		defer func() {
			if *linger > 0 {
				time.Sleep(*linger)
			}
			srv.Close()
		}()
	}
	if *noLock || *noBypass || *ways != 4 {
		f := silcfm.FullFeatures()
		f.Locking = !*noLock
		f.Bypass = !*noBypass
		f.Ways = *ways
		opts.SILC = &f
	}

	wlLabel := *wl
	if wlLabel == "" {
		wlLabel = "trace"
	}
	r, entry, err := silcfm.RunEntry(opts, string(opts.Scheme)+"/"+wlLabel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcfm-sim:", err)
		os.Exit(1)
	}
	man := manifest.New("silcfm-sim", "")
	man.Add(*entry)

	var base *silcfm.Report
	if *compare {
		b := opts
		b.Scheme = silcfm.Baseline
		// The baseline leg is only a cycle-count reference: skip the shadow
		// checker (it verifies nothing a non-remapping scheme can violate
		// and would double the -compare runtime) and don't let its
		// telemetry clobber the main run's output files.
		b.ShadowCheck = false
		b.MetricsOut, b.TraceOut, b.ProgressOut = "", "", nil
		b.ProfileOut, b.ProfileTopK = "", 0
		b.HealthOut, b.PostmortemOut = "", ""
		b.ExemplarsOut = ""
		var bentry *manifest.Entry
		base, bentry, err = silcfm.RunEntry(b, "base/"+wlLabel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-sim: baseline:", err)
			os.Exit(1)
		}
		man.Add(*bentry)
	}

	if *manifestOut != "" {
		if err := man.WriteFile(*manifestOut); err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-sim:", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		printJSON(r, base, *shadowOn)
		return
	}
	printReport(r)
	if *shadowOn {
		fmt.Println("shadow check:       passed")
	}
	if base != nil {
		fmt.Printf("\nbaseline cycles:    %d\n", base.Cycles)
		fmt.Printf("baseline wall:      %.3f s  (%.1f Mcycles/s)\n",
			base.WallSeconds, base.SimCyclesPerSec/1e6)
		fmt.Printf("speedup:            %.3f\n", r.SpeedupOver(base))
		// stats.Ratio: a zero-length baseline run has EDP 0; report 0
		// rather than printing Inf/NaN.
		fmt.Printf("EDP vs baseline:    %.3f\n", stats.Ratio(r.EDP, base.EDP))
	}
}

// printJSON emits the run (and the -compare baseline leg) as one canonical
// JSON object on stdout.
func printJSON(r, base *silcfm.Report, shadow bool) {
	out := struct {
		Run         *silcfm.Report `json:"run"`
		Baseline    *silcfm.Report `json:"baseline,omitempty"`
		Speedup     float64        `json:"speedup,omitempty"`
		EDPRatio    float64        `json:"edp_ratio,omitempty"`
		ShadowCheck string         `json:"shadow_check,omitempty"`
	}{Run: r, Baseline: base}
	if base != nil {
		out.Speedup = r.SpeedupOver(base)
		out.EDPRatio = stats.Ratio(r.EDP, base.EDP)
	}
	if shadow {
		out.ShadowCheck = "passed"
	}
	b, err := manifest.Canonical(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silcfm-sim:", err)
		os.Exit(1)
	}
	os.Stdout.Write(b)
}

func printReport(r *silcfm.Report) {
	fmt.Printf("workload:           %s\n", r.Workload)
	fmt.Printf("scheme:             %s\n", r.Scheme)
	fmt.Printf("instructions:       %d\n", r.Instructions)
	fmt.Printf("execution cycles:   %d\n", r.Cycles)
	fmt.Printf("avg MPKI/core:      %.2f\n", r.AvgMPKI)
	fmt.Printf("access rate:        %.3f\n", r.AccessRate)
	fmt.Printf("NM demand fraction: %.3f\n", r.NMDemandFraction)
	fmt.Printf("migration overhead: %.2f bytes/demand byte\n", r.MigrationOverhead)
	fmt.Printf("footprint:          %.1f MiB\n", float64(r.FootprintBytes)/(1<<20))
	fmt.Printf("energy:             %.3f mJ   EDP: %.3g\n", r.EnergyNJ/1e6, r.EDP)
	if r.Scheme == "silc" {
		fmt.Printf("locks/unlocks:      %d / %d\n", r.Locks, r.Unlocks)
		fmt.Printf("swaps in/out:       %d / %d\n", r.SwapsIn, r.SwapsOut)
		fmt.Printf("bypassed:           %d\n", r.BypassedAccesses)
		fmt.Printf("predictor accuracy: %.3f\n", r.PredictorAccuracy)
	}
	if r.Migrations > 0 {
		fmt.Printf("migrations:         %d\n", r.Migrations)
	}
	fmt.Printf("wall time:          %.3f s  (%.1f Mcycles/s)\n",
		r.WallSeconds, r.SimCyclesPerSec/1e6)
	for _, p := range r.DemandLatency {
		fmt.Printf("latency %-11s n=%-9d mean=%-8.1f p50=%-6d p95=%-6d p99=%-6d max=%d\n",
			p.Path+":", p.Count, p.Mean, p.P50, p.P95, p.P99, p.Max)
	}
	for _, s := range r.Attribution {
		fmt.Printf("spans   %-11s queue=%-10d service=%-10d meta=%-9d swap-ser=%-8d mispred=%-8d other=%d\n",
			s.Path+":", s.Queue, s.Service, s.MetaFetch, s.SwapSerial, s.Mispredict, s.Other)
	}
	if r.TailExemplars != "" {
		fmt.Print(r.TailExemplars)
	}
	if len(r.Health) == 0 {
		fmt.Println("health:             ok")
	} else {
		fmt.Printf("health:             %d incident(s)\n", len(r.Health))
		for _, h := range r.Health {
			fmt.Printf("  %-19s epochs %d-%d  cycles %d-%d  peak severity %.2f\n",
				h.Kind, h.FirstEpoch, h.LastEpoch, h.FirstCycle, h.LastCycle, h.PeakSeverity)
			if info, ok := health.Info(h.Kind); ok {
				fmt.Printf("    fires when:      %s\n", info.Threshold)
				fmt.Printf("    look first at:   %s\n", strings.Join(info.FirstLook, ", "))
			}
		}
	}
	if r.TopOffenders != "" {
		fmt.Println()
		fmt.Print(r.TopOffenders)
	}
}

// splitNonEmpty splits a comma-separated list, returning nil for "".
func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

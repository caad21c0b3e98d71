// Command perfbench is the repository benchmark: it runs paper-scale
// simulations on the Table II machine and reports simulator host speed,
// set-up cost and memory end to end, or, with -trace 1, the host time and
// counters of every layer. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh -workload silc-mcf -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"silcfm/internal/config"
	"silcfm/internal/stats"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", defaultSeed, "workload seed (Machine.Seed)")
	seconds := flag.Float64("seconds", 30, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	goldenOut := flag.String("write-goldens", "", "run every workload once at the default and the held-out seed and write their digests to this file")
	flag.Parse()
	// The simulation is one goroutine. With a single P the collector's work
	// runs on the simulation's own CPU instead of a second, shared one; on a
	// 2-vCPU cloud VM this halved the run-to-run spread of fig7-lbm.
	runtime.GOMAXPROCS(1)

	if *goldenOut != "" {
		if err := writeGoldens(*goldenOut, config.Default()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cells, err := cellsFor(*workloadName, config.Default(), *seed)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	var g *goldens
	if err == nil {
		g, err = loadGoldens()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ch := newChecker(g, *workloadName, *seed)
	if ch.golden {
		fmt.Printf("# %s seed %d: checking against committed golden digests\n", *workloadName, *seed)
	} else {
		fmt.Printf("# %s seed %d: no golden digests; checking repetitions agree\n", *workloadName, *seed)
	}
	var ms map[string]metric
	if *trace == 1 {
		ms = traceRun(cells, *seconds, ch)
	} else {
		ms = measure(*workloadName, cells, *seconds, ch)
	}
	for _, f := range ch.failures {
		fmt.Println("# FAILED", f)
	}
	out, err := json.Marshal(report{
		Correct:   len(ch.failures) == 0,
		Attempted: ch.attempts,
		Failed:    len(ch.failures),
		Metrics:   ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// repeatFor calls rep until the next call would likely end past seconds
// (always at least once), starting each repetition from a collected heap.
func repeatFor(seconds float64, rep func()) {
	start := time.Now()
	for n := 1; ; n++ {
		runtime.GC()
		rep()
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(n) > seconds {
			return
		}
	}
}

// measure runs the workload's cells untraced, repeatedly, and reports the
// end-to-end metrics as medians over the repetitions.
func measure(name string, cells []cell, seconds float64, ch *checker) map[string]metric {
	var mips, runS, setupS, allocMiB, cycles []float64
	first := true
	repeatFor(seconds, func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var wall float64
		results := make([]cellResult, 0, len(cells))
		for _, c := range cells {
			// Each cell starts from a collected heap, as in a fresh
			// silcfm-sim process, so peak memory does not depend on when
			// the previous cell's machine happened to be collected.
			runtime.GC()
			start := time.Now()
			results = append(results, runCell(c, runOptions{}))
			wall += time.Since(start).Seconds()
		}
		runS = append(runS, wall)
		runtime.ReadMemStats(&after)
		allocMiB = append(allocMiB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		var instr, loop, setup, cyc float64
		for i := range results {
			r := &results[i]
			if !ch.check(r) {
				continue
			}
			instr += float64(r.res.TotalInstructions())
			loop += r.loopS
			setup += r.res.WallSeconds - r.loopS
			cyc += float64(r.res.Cycles)
		}
		mips = append(mips, stats.Ratio(instr, loop)/1e6)
		setupS = append(setupS, setup)
		cycles = append(cycles, cyc)
		if first && name == "fig7-lbm" {
			printFigure7(results)
		}
		first = false
		fmt.Fprintf(os.Stderr, "rep %d: %.2f MIPS, run %.3fs, setup %.3fs\n",
			len(runS), mips[len(mips)-1], runS[len(runS)-1], setup)
	})
	fmt.Printf("# %d repetitions\n", len(runS))
	return map[string]metric{
		"sim_mips":    {median(mips), "MIPS"},
		"run_s":       {median(runS), "s"},
		"setup_s":     {median(setupS), "s"},
		"alloc_mib":   {median(allocMiB), "MiB"},
		"max_rss_mib": {maxRSSMiB(), "MiB"},
		"sim_cycles":  {median(cycles), "cycles"},
	}
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printFigure7 prints SILC-FM's simulated speedup over each alternative on
// the Figure 7 cells, next to the paper's headline. The model is not
// validated against hardware, so this is information, not a check.
func printFigure7(results []cellResult) {
	cyc := map[string]float64{}
	for _, r := range results {
		if r.err == nil {
			cyc[strings.SplitN(r.id, "/", 2)[0]] = float64(r.res.Cycles)
		}
	}
	silc := cyc["silc"]
	if silc == 0 {
		return
	}
	var parts []string
	for _, v := range []string{"baseline", "rand", "hma", "cam", "camp", "pom"} {
		if c := cyc[v]; c > 0 {
			parts = append(parts, fmt.Sprintf("%s %+.0f%%", v, (c/silc-1)*100))
		}
	}
	fmt.Printf("# fig7-lbm: SILC-FM speedup over %s (paper: +36%% over the best alternative, geomean of all workloads; unvalidated model, not gated)\n",
		strings.Join(parts, ", "))
}

package harness

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"silcfm/internal/config"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/live"
	"silcfm/internal/workload"
)

// ExpConfig sizes an experiment sweep.
type ExpConfig struct {
	Machine      config.Machine // base machine; Scheme/SILC are overridden per variant
	InstrPerCore uint64
	Workloads    []string // defaults to all of Table III
	FootScaleNum int
	FootScaleDen int
	Parallelism  int
	// ShadowCheck enables the continuous integrity checker on every run.
	ShadowCheck bool
	// Out names one directory per output kind; every cell writes its
	// files there under its id (see Outputs.forCell).
	Out Outputs
	// EpochCycles and TraceLimit are every cell's telemetry sampling
	// period and trace ring bound (telemetry defaults when zero).
	EpochCycles uint64
	TraceLimit  int
	// Live, when non-nil, attaches every run in the sweep to a live
	// observability server through AttachLive, under its cell id.
	Live *live.Server
	// Progress, when non-nil, receives one completion line per finished run.
	Progress io.Writer
}

func (c ExpConfig) workloads() []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return workload.Names
}

func (c ExpConfig) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.NumCPU()
}

// Variant is one configuration under comparison (a scheme, or a SILC-FM
// feature level for Figure 6).
type Variant struct {
	Label  string
	Mutate func(*config.Machine)
}

// SchemeVariant wraps a plain scheme selection.
func SchemeVariant(s config.SchemeName) Variant {
	return Variant{Label: string(s), Mutate: func(m *config.Machine) { m.Scheme = s }}
}

// Figure6Variants returns the paper's breakdown stack: Random placement,
// then SILC-FM gaining swap, locking, associativity and bypassing one at a
// time (§V-A).
func Figure6Variants() []Variant {
	silc := func(lock bool, ways int, bypass bool) func(*config.Machine) {
		return func(m *config.Machine) {
			m.Scheme = config.SchemeSILCFM
			m.SILC.Features.Locking = lock
			m.SILC.Features.Ways = ways
			m.SILC.Features.Bypass = bypass
		}
	}
	return []Variant{
		SchemeVariant(config.SchemeRandom),
		{Label: "swap", Mutate: silc(false, 1, false)},
		{Label: "+lock", Mutate: silc(true, 1, false)},
		{Label: "+assoc", Mutate: silc(true, 4, false)},
		{Label: "+bypass", Mutate: silc(true, 4, true)},
	}
}

// Figure7Variants returns the cross-scheme comparison set.
func Figure7Variants() []Variant {
	out := make([]Variant, 0, len(config.AllSchemes))
	for _, s := range config.AllSchemes {
		out = append(out, SchemeVariant(s))
	}
	return out
}

// SweepResult holds a full (variant x workload) sweep plus the shared
// no-NM baseline runs used for normalization.
type SweepResult struct {
	// Name prefixes every cell id: "<name>/<label>/<workload>", with
	// label "baseline" for the no-NM leg.
	Name     string
	Cfg      ExpConfig
	Variants []Variant
	// Runs[variant label][workload]
	Runs map[string]map[string]*Result
	// Baseline[workload] is the system-without-NM run.
	Baseline map[string]*Result
	// WallSeconds is the host wall-clock time of the whole sweep
	// (parallel legs overlap, so it is less than the per-leg sum).
	WallSeconds float64
}

// WallFooter renders host-side cost per sweep leg: each variant's summed
// wall time over its workloads and its aggregate simulation throughput
// (total simulated cycles per host second spent in the event loop).
func (s *SweepResult) WallFooter() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall clock: sweep %.1fs", s.WallSeconds)
	legs := append([]string{"baseline"}, variantLabels(s.Variants)...)
	for _, label := range legs {
		runs := s.Runs[label]
		if label == "baseline" {
			runs = s.Baseline
		}
		var wall, loop float64
		var cycles uint64
		for _, wl := range s.Cfg.workloads() {
			r := runs[wl]
			if r == nil {
				continue
			}
			wall += r.WallSeconds
			cycles += r.Cycles
			loop += stats.Ratio(float64(r.Cycles), r.SimCyclesPerSec)
		}
		if wall == 0 {
			continue
		}
		tput := stats.Ratio(float64(cycles), loop)
		fmt.Fprintf(&b, "; %s %.1fs @ %.1f Mcyc/s", label, wall, tput/1e6)
	}
	return b.String()
}

// Cell is one run of a sweep under its id.
type Cell struct {
	ID     string
	Result *Result
}

// Cells lists every run of the sweep: per workload, the baseline leg and
// then each variant in order.
func (s *SweepResult) Cells() []Cell {
	var out []Cell
	for _, wl := range s.Cfg.workloads() {
		out = append(out, Cell{cellID(s.Name, "baseline", wl), s.Baseline[wl]})
		for _, v := range s.Variants {
			out = append(out, Cell{cellID(s.Name, v.Label, wl), s.Runs[v.Label][wl]})
		}
	}
	return out
}

// cellID names one sweep cell: the live-hub run, the output file stem and
// the manifest entry all use it.
func cellID(sweep, label, wl string) string { return sweep + "/" + label + "/" + wl }

// Speedup returns a variant's speedup over the baseline for one workload.
func (s *SweepResult) Speedup(label, wl string) float64 {
	r := s.Runs[label][wl]
	b := s.Baseline[wl]
	if r == nil || b == nil {
		return 0
	}
	return r.Speedup(b.Cycles)
}

// GeoMeanSpeedup aggregates a variant over all workloads.
func (s *SweepResult) GeoMeanSpeedup(label string) float64 {
	var xs []float64
	for _, wl := range s.Cfg.workloads() {
		xs = append(xs, s.Speedup(label, wl))
	}
	return stats.GeoMean(xs)
}

// Sweep runs every (variant, workload) pair plus baselines, in parallel,
// under cell ids "<name>/<label>/<workload>".
func Sweep(cfg ExpConfig, name string, variants []Variant) (*SweepResult, error) {
	sweepStart := time.Now()
	o := cfg.Out
	for _, dir := range []string{o.Metrics, o.Trace, o.Profile, o.Health, o.Postmortem} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: output: %w", err)
		}
	}
	type job struct {
		label string
		wl    string
		mach  config.Machine
	}
	var jobs []job
	for _, wl := range cfg.workloads() {
		m := cfg.Machine
		m.Scheme = config.SchemeBaseline
		jobs = append(jobs, job{label: "", wl: wl, mach: m})
		for _, v := range variants {
			m := cfg.Machine
			v.Mutate(&m)
			jobs = append(jobs, job{label: v.Label, wl: wl, mach: m})
		}
	}

	res := &SweepResult{
		Name:     name,
		Cfg:      cfg,
		Variants: variants,
		Runs:     map[string]map[string]*Result{},
		Baseline: map[string]*Result{},
	}
	for _, v := range variants {
		res.Runs[v.Label] = map[string]*Result{}
	}

	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, cfg.parallelism())
	var wg sync.WaitGroup
	for _, j := range jobs {
		j := j
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			label := j.label
			if label == "" {
				label = "baseline"
			}
			id := cellID(name, label, j.wl)
			r, err := runCell(cfg, id, j.wl, j.mach)
			if err == nil {
				err = r.Err()
			}
			mu.Lock()
			defer mu.Unlock()
			if cfg.Progress != nil {
				status := "ok"
				if err != nil {
					status = "error: " + err.Error()
				}
				fmt.Fprintf(cfg.Progress, "done %s: %s\n", id, status)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", id, err)
				}
				return
			}
			if j.label == "" {
				res.Baseline[j.wl] = r
			} else {
				res.Runs[j.label][j.wl] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.WallSeconds = time.Since(sweepStart).Seconds()
	return res, nil
}

// runCell runs one sweep cell on machine m, writing its outputs and
// attaching it to the live hub under id.
func runCell(cfg ExpConfig, id, wl string, m config.Machine) (*Result, error) {
	spec := Spec{
		Machine:           m,
		Workload:          wl,
		InstrPerCore:      cfg.InstrPerCore,
		ScaleInstrByClass: true,
		FootScaleNum:      cfg.FootScaleNum,
		FootScaleDen:      cfg.FootScaleDen,
		ShadowCheck:       cfg.ShadowCheck,
		Telemetry:         &telemetry.Config{EpochCycles: cfg.EpochCycles, TraceLimit: cfg.TraceLimit},
		Out:               cfg.Out.forCell(id),
	}
	done := AttachLive(&spec, cfg.Live.Registry(), id)
	r, err := Run(spec)
	done(r)
	return r, err
}

// Figure6 regenerates the feature-breakdown figure: per-workload speedup of
// each SILC-FM feature level over the no-NM baseline.
func Figure6(cfg ExpConfig) (*SweepResult, *stats.Table, error) {
	sw, err := Sweep(cfg, "fig6", Figure6Variants())
	if err != nil {
		return nil, nil, err
	}
	return sw, speedupTable("Figure 6: SILC-FM performance breakdown (speedup vs no-NM baseline)", sw), nil
}

// Figure7 regenerates the scheme comparison figure.
func Figure7(cfg ExpConfig) (*SweepResult, *stats.Table, error) {
	sw, err := Sweep(cfg, "fig7", Figure7Variants())
	if err != nil {
		return nil, nil, err
	}
	return sw, speedupTable("Figure 7: performance comparison with other schemes (speedup vs no-NM baseline)", sw), nil
}

// Figure8 derives the demand-bandwidth split from a Figure-7-style sweep:
// the fraction of demand bytes serviced by NM per scheme (ideal 0.8).
func Figure8(sw *SweepResult) *stats.Table {
	t := &stats.Table{
		Title:   "Figure 8: fraction of demand bandwidth consumed from NM (ideal 0.8)",
		Columns: append([]string{"workload"}, variantLabels(sw.Variants)...),
	}
	for _, wl := range sw.Cfg.workloads() {
		row := []string{wl}
		for _, v := range sw.Variants {
			row = append(row, stats.F(sw.Runs[v.Label][wl].Mem.DemandNMFraction()))
		}
		t.AddRow(row...)
	}
	avg := []string{"mean"}
	for _, v := range sw.Variants {
		s := 0.0
		for _, wl := range sw.Cfg.workloads() {
			s += sw.Runs[v.Label][wl].Mem.DemandNMFraction()
		}
		avg = append(avg, stats.F(s/float64(len(sw.Cfg.workloads()))))
	}
	t.AddRow(avg...)
	return t
}

// Figure9 sweeps the NM:FM capacity ratio (1/16, 1/8, 1/4) for the
// migrating schemes and reports geometric-mean speedups. It returns one
// sweep per ratio, named "fig9-<N>" for NM = FM/N.
func Figure9(cfg ExpConfig) (*stats.Table, []*SweepResult, error) {
	schemes := []config.SchemeName{
		config.SchemeCAMEO, config.SchemeCAMEOP, config.SchemeHMA,
		config.SchemePoM, config.SchemeSILCFM,
	}
	var variants []Variant
	t := &stats.Table{
		Title:   "Figure 9: geomean speedup with various NM capacities (NM = FM/N)",
		Columns: []string{"ratio"},
	}
	for _, s := range schemes {
		variants = append(variants, SchemeVariant(s))
		t.Columns = append(t.Columns, string(s))
	}
	var sweeps []*SweepResult
	for _, den := range []uint64{16, 8, 4} {
		c := cfg
		c.Machine = cfg.Machine.WithNMRatio(den)
		sw, err := Sweep(c, fmt.Sprintf("fig9-%d", den), variants)
		if err != nil {
			return nil, nil, fmt.Errorf("ratio 1/%d: %w", den, err)
		}
		row := []string{fmt.Sprintf("1/%d", den)}
		for _, s := range schemes {
			row = append(row, stats.F2(sw.GeoMeanSpeedup(string(s))))
		}
		t.AddRow(row...)
		sweeps = append(sweeps, sw)
	}
	return t, sweeps, nil
}

// TableIII reports each workload's measured per-core MPKI and footprint
// through the cache hierarchy, using the baseline machine: a Sweep named
// "table3" with no variants, so its runs are the "baseline" legs of every
// other sweep and honour the same per-run options.
func TableIII(cfg ExpConfig) (*stats.Table, *SweepResult, error) {
	sw, err := Sweep(cfg, "table3", nil)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{
		Title:   "Table III: workload characteristics (measured)",
		Columns: []string{"benchmark", "class", "MPKI/core", "footprint MB"},
	}
	for _, wl := range cfg.workloads() {
		p, _ := workload.Spec(wl)
		r := sw.Baseline[wl]
		t.AddRow(wl, p.Class.String(), stats.F2(r.AvgMPKI()),
			fmt.Sprintf("%.1f", float64(r.FootprintPages)*2048/(1<<20)))
	}
	return t, sw, nil
}

// Headline summarizes the paper's abstract numbers from Figure 6/7 sweeps:
// swap-only gain over static placement, the per-feature increments, the
// gain over the best alternative scheme, and the EDP delta.
type Headline struct {
	SwapOverStatic  float64 // paper: +55%
	LockIncrement   float64 // paper: +11%
	AssocIncrement  float64 // paper: +8%
	BypassIncrement float64 // paper: +8%
	TotalOverStatic float64 // paper: +82%
	OverBestAlt     float64 // paper: +36%
	BestAlt         string
	EDPReduction    float64 // paper: 13% vs best alternative
}

// ComputeHeadline derives Headline from Figure 6 and Figure 7 sweeps.
func ComputeHeadline(f6, f7 *SweepResult) Headline {
	h := Headline{}
	rand := f6.GeoMeanSpeedup("rand")
	swap := f6.GeoMeanSpeedup("swap")
	lock := f6.GeoMeanSpeedup("+lock")
	assoc := f6.GeoMeanSpeedup("+assoc")
	byp := f6.GeoMeanSpeedup("+bypass")
	if rand > 0 {
		h.SwapOverStatic = swap/rand - 1
		h.TotalOverStatic = byp/rand - 1
	}
	if swap > 0 {
		h.LockIncrement = lock/swap - 1
	}
	if lock > 0 {
		h.AssocIncrement = assoc/lock - 1
	}
	if assoc > 0 {
		h.BypassIncrement = byp/assoc - 1
	}

	silc := f7.GeoMeanSpeedup("silc")
	best, bestLabel := 0.0, ""
	for _, v := range f7.Variants {
		if v.Label == "silc" {
			continue
		}
		if g := f7.GeoMeanSpeedup(v.Label); g > best {
			best, bestLabel = g, v.Label
		}
	}
	if best > 0 {
		h.OverBestAlt = silc/best - 1
		h.BestAlt = bestLabel
	}

	// EDP vs the best alternative, averaged over workloads.
	var silcEDP, altEDP float64
	for _, wl := range f7.Cfg.workloads() {
		silcEDP += f7.Runs["silc"][wl].EDP()
		altEDP += f7.Runs[bestLabel][wl].EDP()
	}
	if altEDP > 0 {
		h.EDPReduction = 1 - silcEDP/altEDP
	}
	return h
}

func (h Headline) String() string {
	return fmt.Sprintf(
		"swap over static: %+.0f%% (paper +55%%)\n"+
			"locking:          %+.0f%% (paper +11%%)\n"+
			"associativity:    %+.0f%% (paper +8%%)\n"+
			"bypassing:        %+.0f%% (paper +8%%)\n"+
			"total over static:%+.0f%% (paper +82%%)\n"+
			"over best alt (%s): %+.0f%% (paper +36%% over CAMEO)\n"+
			"EDP reduction:    %.0f%% (paper 13%%)",
		h.SwapOverStatic*100, h.LockIncrement*100, h.AssocIncrement*100,
		h.BypassIncrement*100, h.TotalOverStatic*100, h.BestAlt,
		h.OverBestAlt*100, h.EDPReduction*100)
}

func variantLabels(vs []Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Label
	}
	return out
}

func speedupTable(title string, sw *SweepResult) *stats.Table {
	t := &stats.Table{
		Title:   title,
		Columns: append([]string{"workload"}, variantLabels(sw.Variants)...),
	}
	for _, wl := range sw.Cfg.workloads() {
		row := []string{wl}
		for _, v := range sw.Variants {
			row = append(row, stats.F2(sw.Speedup(v.Label, wl)))
		}
		t.AddRow(row...)
	}
	gm := []string{"geomean"}
	for _, v := range sw.Variants {
		gm = append(gm, stats.F2(sw.GeoMeanSpeedup(v.Label)))
	}
	t.AddRow(gm...)
	return t
}

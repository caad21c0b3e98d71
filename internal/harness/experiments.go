package harness

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"

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

// checkWorkloads rejects unknown, empty and repeated workload names, all
// of them in one error.
func (c ExpConfig) checkWorkloads() error {
	var bad []string
	for i, wl := range c.Workloads {
		if _, ok := workload.Spec(wl); !ok || slices.Index(c.Workloads, wl) < i {
			bad = append(bad, fmt.Sprintf("%q", wl))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("harness: workloads %s: each must be one of %s, at most once",
			strings.Join(bad, ", "), strings.Join(workload.Names, ", "))
	}
	return nil
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

// baselineLeg is every sweep's no-NM leg.
var baselineLeg = Variant{Label: "baseline", Mutate: func(m *config.Machine) { m.Scheme = config.SchemeBaseline }}

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
func Figure7Variants() []Variant { return schemeVariants(config.AllSchemes) }

func schemeVariants(schemes []config.SchemeName) []Variant {
	out := make([]Variant, 0, len(schemes))
	for _, s := range schemes {
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
}

func (s *SweepResult) legs() []Variant { return append([]Variant{baselineLeg}, s.Variants...) }

func (s *SweepResult) leg(label string) map[string]*Result {
	if label == baselineLeg.Label {
		return s.Baseline
	}
	return s.Runs[label]
}

// WallFooter renders host-side cost per sweep leg: each variant's summed
// wall time over its workloads and its aggregate simulation throughput
// (total simulated cycles per host second spent in the event loop).
func (s *SweepResult) WallFooter() string {
	var legs []string
	for _, v := range s.legs() {
		var wall, loop float64
		var cycles uint64
		for _, wl := range s.Cfg.workloads() {
			r := s.leg(v.Label)[wl]
			wall += r.WallSeconds
			cycles += r.Cycles
			loop += stats.Ratio(float64(r.Cycles), r.SimCyclesPerSec)
		}
		if wall == 0 {
			continue
		}
		tput := stats.Ratio(float64(cycles), loop)
		legs = append(legs, fmt.Sprintf("%s %.1fs @ %.1f Mcyc/s", v.Label, wall, tput/1e6))
	}
	return "wall clock: " + strings.Join(legs, "; ")
}

// Cell is one run of a sweep under its id.
type Cell struct {
	ID     string
	Result *Result
}

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

// runPlan fills a set of sweeps from one pass over the union of their
// cells. Each distinct Spec.Fingerprint runs once, in one worker pool, and
// every sweep that needs it shares its *Result: equal fingerprints give
// byte-identical counters, so a second run would add nothing. A shared
// cell runs under the id of the first sweep listing it; that id names its
// output files, live-hub run, progress line and error. runPlan returns the
// distinct cells in that order, or the first failing cell's error. Each
// sweep runs on its Cfg.Machine; every other option comes from cfg.
func runPlan(cfg ExpConfig, sweeps []*SweepResult) ([]Cell, error) {
	if err := cfg.checkWorkloads(); err != nil {
		return nil, err
	}
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
		Cell // every sweep leg holds Result, filled in place once the run ends
		spec Spec
		err  error
	}
	var jobs []*job
	byFingerprint := map[string]*job{}
	for _, sw := range sweeps {
		sw.Baseline, sw.Runs = map[string]*Result{}, map[string]map[string]*Result{}
		for _, v := range sw.Variants {
			sw.Runs[v.Label] = map[string]*Result{}
		}
		for _, wl := range cfg.workloads() {
			for _, v := range sw.legs() {
				spec := Spec{
					Machine:           sw.Cfg.Machine,
					Workload:          wl,
					InstrPerCore:      cfg.InstrPerCore,
					ScaleInstrByClass: true,
					FootScaleNum:      cfg.FootScaleNum,
					FootScaleDen:      cfg.FootScaleDen,
					ShadowCheck:       cfg.ShadowCheck,
					Telemetry:         &telemetry.Config{EpochCycles: cfg.EpochCycles, TraceLimit: cfg.TraceLimit},
				}
				v.Mutate(&spec.Machine)
				fp := spec.Fingerprint()
				j := byFingerprint[fp]
				if j == nil {
					id := sw.Name + "/" + v.Label + "/" + wl
					spec.Out = cfg.Out.forCell(id)
					j = &job{Cell: Cell{id, new(Result)}, spec: spec}
					byFingerprint[fp] = j
					jobs = append(jobs, j)
				}
				sw.leg(v.Label)[wl] = j.Result
			}
		}
	}

	var progress sync.Mutex
	sem := make(chan struct{}, cfg.parallelism())
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			done := AttachLive(&j.spec, cfg.Live.Registry(), j.ID)
			r, err := Run(j.spec)
			done(r)
			if err == nil {
				*j.Result, err = *r, r.Err()
			}
			j.err = err
			if cfg.Progress != nil {
				status := "ok"
				if j.err != nil {
					status = "error: " + j.err.Error()
				}
				progress.Lock()
				fmt.Fprintf(cfg.Progress, "done %s: %s\n", j.ID, status)
				progress.Unlock()
			}
		}()
	}
	wg.Wait()
	cells := make([]Cell, len(jobs))
	for i, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("%s: %w", j.ID, j.err)
		}
		cells[i] = j.Cell
	}
	return cells, nil
}

// Figures is the evaluation matrix behind the paper's tables, filled by
// one plan: the sweep each selected figure reads, nil when not selected.
// Figure 8 and the headline read Fig7 (and Fig6).
type Figures struct {
	Table3, Fig6, Fig7 *SweepResult
	// Fig9 holds one sweep per NM:FM ratio, named "fig9-<N>" for NM = FM/N.
	Fig9 []*SweepResult
	// Cells lists every distinct run once, under the id that owns it.
	Cells []Cell
}

// RunFigures runs the sweeps behind the named figures ("table3", "fig6",
// "fig7", "fig9") as one plan, so every distinct cell simulates once. A
// cell several sweeps share takes the id of the first of fig7, fig6,
// table3, fig9-16, fig9-8, fig9-4 that needs it: with all four selected
// that is 22 runs per workload instead of 32.
func RunFigures(cfg ExpConfig, names ...string) (*Figures, error) {
	for _, n := range names {
		switch n {
		case "table3", "fig6", "fig7", "fig9":
		default:
			return nil, fmt.Errorf("harness: unknown figure %q (known: table3, fig6, fig7, fig9)", n)
		}
	}
	f := &Figures{}
	var plan []*SweepResult
	add := func(fig, name string, c ExpConfig, vs []Variant) *SweepResult {
		if !slices.Contains(names, fig) {
			return nil
		}
		sw := &SweepResult{Name: name, Cfg: c, Variants: vs}
		plan = append(plan, sw)
		return sw
	}
	f.Fig7 = add("fig7", "fig7", cfg, Figure7Variants())
	f.Fig6 = add("fig6", "fig6", cfg, Figure6Variants())
	f.Table3 = add("table3", "table3", cfg, nil)
	// Figure 9 compares the migrating schemes.
	fig9 := schemeVariants([]config.SchemeName{config.SchemeCAMEO, config.SchemeCAMEOP,
		config.SchemeHMA, config.SchemePoM, config.SchemeSILCFM})
	for _, den := range []uint64{16, 8, 4} {
		c := cfg
		c.Machine = cfg.Machine.WithNMRatio(den)
		if sw := add("fig9", fmt.Sprintf("fig9-%d", den), c, fig9); sw != nil {
			f.Fig9 = append(f.Fig9, sw)
		}
	}
	cells, err := runPlan(cfg, plan)
	if err != nil {
		return nil, err
	}
	f.Cells = cells
	return f, nil
}

// TableIII reports each workload's measured per-core MPKI and footprint
// through the cache hierarchy, from the no-NM runs of the "table3" sweep.
func (f *Figures) TableIII() *stats.Table {
	t := &stats.Table{
		Title:   "Table III: workload characteristics (measured)",
		Columns: []string{"benchmark", "class", "MPKI/core", "footprint MB"},
	}
	for _, wl := range f.Table3.Cfg.workloads() {
		p, _ := workload.Spec(wl)
		r := f.Table3.Baseline[wl]
		t.AddRow(wl, p.Class.String(), stats.F2(r.AvgMPKI()),
			fmt.Sprintf("%.1f", float64(r.FootprintPages)*2048/(1<<20)))
	}
	return t
}

// Figure6 renders the feature breakdown: per-workload speedup of each
// SILC-FM feature level over the no-NM baseline.
func (f *Figures) Figure6() *stats.Table {
	return speedupTable("Figure 6: SILC-FM performance breakdown (speedup vs no-NM baseline)", f.Fig6)
}

// Figure7 renders the scheme comparison.
func (f *Figures) Figure7() *stats.Table {
	return speedupTable("Figure 7: performance comparison with other schemes (speedup vs no-NM baseline)", f.Fig7)
}

// Figure9 renders the capacity sensitivity: the migrating schemes'
// geometric-mean speedups at each NM:FM ratio.
func (f *Figures) Figure9() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 9: geomean speedup with various NM capacities (NM = FM/N)",
		Columns: append([]string{"ratio"}, variantLabels(f.Fig9[0].Variants)...),
	}
	for _, sw := range f.Fig9 {
		row := []string{"1/" + strings.TrimPrefix(sw.Name, "fig9-")}
		for _, v := range sw.Variants {
			row = append(row, stats.F2(sw.GeoMeanSpeedup(v.Label)))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure7 regenerates the scheme comparison figure as a one-figure plan.
func Figure7(cfg ExpConfig) (*SweepResult, *stats.Table, error) {
	f, err := RunFigures(cfg, "fig7")
	if err != nil {
		return nil, nil, err
	}
	return f.Fig7, f.Figure7(), nil
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
	// Text renders every number next to the paper's.
	Text string
}

// ComputeHeadline derives Headline from Figure 6 and Figure 7 sweeps.
func ComputeHeadline(f6, f7 *SweepResult) Headline {
	g := f6.GeoMeanSpeedup
	rand, swap, lock, assoc, byp := g("rand"), g("swap"), g("+lock"), g("+assoc"), g("+bypass")
	h := Headline{
		SwapOverStatic:  gain(swap, rand),
		LockIncrement:   gain(lock, swap),
		AssocIncrement:  gain(assoc, lock),
		BypassIncrement: gain(byp, assoc),
		TotalOverStatic: gain(byp, rand),
	}
	best := 0.0
	for _, v := range f7.Variants {
		if g := f7.GeoMeanSpeedup(v.Label); v.Label != "silc" && g > best {
			best, h.BestAlt = g, v.Label
		}
	}
	h.OverBestAlt = gain(f7.GeoMeanSpeedup("silc"), best)

	// EDP vs the best alternative, averaged over workloads.
	var silcEDP, altEDP float64
	for _, wl := range f7.Cfg.workloads() {
		silcEDP += f7.Runs["silc"][wl].EDP()
		altEDP += f7.Runs[h.BestAlt][wl].EDP()
	}
	if altEDP > 0 {
		h.EDPReduction = 1 - silcEDP/altEDP
	}
	h.Text = fmt.Sprintf(
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
	return h
}

// gain is x's relative gain over base, 0 when base is not positive.
func gain(x, base float64) float64 {
	if base > 0 {
		return x/base - 1
	}
	return 0
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

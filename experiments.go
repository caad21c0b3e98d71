package silcfm

import (
	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/stats"
)

// ExperimentOptions sizes a paper-experiment sweep.
type ExperimentOptions struct {
	// InstrPerCore is the base per-core instruction target (default 1M),
	// always scaled per workload class.
	InstrPerCore uint64
	// Workloads restricts the sweep (default: all 14 of Table III).
	Workloads []string
	// Parallelism caps concurrent simulations (default: GOMAXPROCS).
	Parallelism int
	// Cores / NMCapacity / FMCapacity override the Table II machine.
	Cores      int
	NMCapacity uint64
	FMCapacity uint64
	// FootprintScaleDen divides workload footprints (see Options).
	FootprintScaleDen int
	Seed              int64
}

func (o ExperimentOptions) expConfig() harness.ExpConfig {
	m := config.Default()
	if o.Cores > 0 {
		m.Cores = o.Cores
	}
	if o.NMCapacity > 0 {
		m.NM = config.HBM(o.NMCapacity)
	}
	if o.FMCapacity > 0 {
		m.FM = config.DDR3(o.FMCapacity)
	}
	if o.Seed != 0 {
		m.Seed = o.Seed
	}
	cfg := harness.ExpConfig{
		Machine:      m,
		InstrPerCore: o.InstrPerCore,
		Workloads:    o.Workloads,
		Parallelism:  o.Parallelism,
	}
	if o.FootprintScaleDen > 1 {
		cfg.FootScaleNum, cfg.FootScaleDen = 1, o.FootprintScaleDen
	}
	return cfg
}

// Table is one experiment table: a title, column headers and rows of
// cells. String renders it with aligned columns, CSV as comma-separated
// values (header row first).
type Table = stats.Table

// figure runs one figure's plan and renders its table.
func figure(o ExperimentOptions, name string, table func(*harness.Figures) *stats.Table) (*Table, error) {
	f, err := harness.RunFigures(o.expConfig(), name)
	if err != nil {
		return nil, err
	}
	return table(f), nil
}

// Figure6 regenerates the paper's feature-breakdown figure: per-workload
// speedups over the no-NM baseline for Random placement and for SILC-FM as
// swap, locking, associativity and bypassing are enabled in turn.
func Figure6(o ExperimentOptions) (*Table, error) {
	return figure(o, "fig6", (*harness.Figures).Figure6)
}

// Figure7 regenerates the scheme-comparison figure (rand, hma, cam, camp,
// pom, silc speedups over the no-NM baseline).
func Figure7(o ExperimentOptions) (*Table, error) {
	return figure(o, "fig7", (*harness.Figures).Figure7)
}

// Figure8 regenerates the demand-bandwidth-split figure: the fraction of
// demand bytes serviced from NM per scheme (ideal 0.8 for the 4:1 machine).
func Figure8(o ExperimentOptions) (*Table, error) {
	return figure(o, "fig7", func(f *harness.Figures) *stats.Table { return harness.Figure8(f.Fig7) })
}

// Figure9 regenerates the capacity-sensitivity figure: geometric-mean
// speedups at NM = FM/16, FM/8 and FM/4.
func Figure9(o ExperimentOptions) (*Table, error) {
	return figure(o, "fig9", (*harness.Figures).Figure9)
}

// TableIII reports each workload's measured MPKI class and footprint.
func TableIII(o ExperimentOptions) (*Table, error) {
	return figure(o, "table3", (*harness.Figures).TableIII)
}

// Headline summarizes the paper's abstract-level numbers: the per-feature
// improvement stack, the gain over the best alternative scheme, and the
// EDP delta, each next to the paper's figure.
type Headline = harness.Headline

// ComputeHeadline runs the Figure 6 and Figure 7 sweeps as one plan, so
// their shared cells simulate once, and derives the headline numbers.
func ComputeHeadline(o ExperimentOptions) (*Headline, error) {
	f, err := harness.RunFigures(o.expConfig(), "fig6", "fig7")
	if err != nil {
		return nil, err
	}
	h := harness.ComputeHeadline(f.Fig6, f.Fig7)
	return &h, nil
}

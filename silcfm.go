// Package silcfm is a simulation library reproducing "SILC-FM: Subblocked
// InterLeaved Cache-Like Flat Memory Organization" (Ryoo, Meswani,
// Prodromou, John — HPCA 2017).
//
// It models a heterogeneous flat memory — die-stacked HBM near memory plus
// off-chip DDR3 far memory — managed by one of seven organization schemes
// (the paper's SILC-FM plus its six comparison points), driven by a
// multicore processor model over synthetic SPEC CPU2006-like workloads, on
// top of an event-driven DRAM timing model.
//
// Quick start:
//
//	base, _ := silcfm.Run(silcfm.Options{Scheme: silcfm.Baseline, Workload: "mcf"})
//	silc, _ := silcfm.Run(silcfm.Options{Scheme: silcfm.SILCFM, Workload: "mcf"})
//	fmt.Printf("speedup %.2f at access rate %.2f\n", silc.SpeedupOver(base), silc.AccessRate)
//
// The Figure*/Table* functions regenerate every experiment of the paper's
// evaluation section; see EXPERIMENTS.md for measured-vs-paper results.
package silcfm

import (
	"fmt"
	"io"
	"strings"

	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/manifest"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/telemetry/live"
	"silcfm/internal/workload"
)

// LiveServer is the embedded observability HTTP server (see Serve): it
// exposes /metrics (Prometheus text), /healthz (open health incidents),
// /progress (per-run status with ETA) and /debug/pprof for every run
// attached through Options.Live.
type LiveServer = live.Server

// Serve binds addr (host:port; ":0" picks a free port) and starts the live
// observability server. Attach runs via Options.Live; stop with Close.
func Serve(addr string) (*LiveServer, error) { return live.New(addr) }

// Scheme names a memory-organization scheme.
type Scheme string

// The implemented schemes, as plotted in the paper's Figure 7.
const (
	// Baseline is the no-die-stacked-DRAM system every figure normalizes
	// against: far memory only.
	Baseline Scheme = "base"
	// Random places pages randomly across NM+FM and never migrates.
	Random Scheme = "rand"
	// HMA is the epoch-based OS-managed migration scheme (§II-C).
	HMA Scheme = "hma"
	// CAMEO swaps 64-byte blocks within direct-mapped congruence groups.
	CAMEO Scheme = "cam"
	// CAMEOPrefetch is CAMEO plus a next-3-line prefetcher (§IV-A).
	CAMEOPrefetch Scheme = "camp"
	// PoM migrates 2 KB blocks after an access-count threshold.
	PoM Scheme = "pom"
	// SILCFM is the paper's contribution.
	SILCFM Scheme = "silc"
)

// Schemes returns every scheme, baseline first.
func Schemes() []Scheme {
	return []Scheme{Baseline, Random, HMA, CAMEO, CAMEOPrefetch, PoM, SILCFM}
}

// Workloads returns the Table III benchmark names.
func Workloads() []string { return append([]string(nil), workload.Names...) }

// Features toggles SILC-FM's mechanisms, enabling Figure 6-style
// breakdowns. The zero value disables everything except base subblock
// swapping with a direct-mapped organization.
type Features struct {
	Locking   bool // lock hot blocks in NM (§III-C)
	Ways      int  // NM set associativity: 1, 2 or 4 (§III-C)
	Bypass    bool // bandwidth-balancing bypass at 0.8 access rate (§III-E)
	Predictor bool // way/location predictor (§III-F)
	History   bool // bit vector history replay (§III-A)
}

// FullFeatures returns the paper's chosen design point.
func FullFeatures() Features {
	return Features{Locking: true, Ways: 4, Bypass: true, Predictor: true, History: true}
}

// Tuning overrides SILC-FM's numeric parameters for ablation studies
// (§III-B/C/E/F). Zero-valued fields keep the defaults.
type Tuning struct {
	HotThreshold     uint32  // lock threshold (paper: 50; scaled default 16)
	AgingInterval    uint64  // accesses between counter right-shifts
	BypassTarget     float64 // access-rate ceiling (paper: 0.8)
	HistoryEntries   int     // bit vector history table size
	PredictorEntries int     // way/location predictor size (paper: 4K)
}

// Options configures one simulation.
type Options struct {
	Scheme   Scheme
	Workload string // a Workloads() name; default "mcf"

	// InstrPerCore is the rate-mode retirement target per core
	// (default 1M). With ScaleInstrByClass, low-MPKI workloads run
	// proportionally longer so all benchmarks reach steady state.
	InstrPerCore      uint64
	ScaleInstrByClass bool

	// Cores defaults to 16 (Table II). NMCapacity/FMCapacity default to
	// 128 MB / 512 MB; both must be multiples of 2 KB and FM a multiple
	// of NM.
	Cores      int
	NMCapacity uint64
	FMCapacity uint64

	// SILC overrides SILC-FM's feature set (nil = FullFeatures).
	SILC *Features

	// Tuning overrides SILC-FM's numeric parameters (nil = paper design
	// point, scaled); zero-valued fields keep their defaults.
	Tuning *Tuning

	// FootprintScaleDen divides every workload's footprint and hot-set
	// sizes, for running on proportionally smaller NM/FM capacities
	// (0 or 1 = unscaled).
	FootprintScaleDen int

	// TracePath replays a trace captured by cmd/silcfm-trace instead of
	// the synthetic generator; Workload then only labels the run.
	TracePath string

	// Mix runs a heterogeneous multiprogrammed mix: core i runs benchmark
	// Mix[i mod len(Mix)]. Overrides Workload. (The paper evaluates
	// homogeneous rate mode; mixes are an extension.)
	Mix []string

	// ShadowCheck runs the continuous shadow-data integrity checker
	// alongside the simulation (internal/shadow): every demand access and
	// swap is verified against a token-level reference model, and Run
	// returns an error on the first violation. Costs simulation speed.
	ShadowCheck bool

	// MetricsOut streams epoch time-series metrics to a file: one sample
	// per MetricsEpoch simulated cycles holding the stats counter deltas
	// plus scheme gauges. JSONL by default; a path ending in ".csv"
	// switches to CSV with a header row. Every *Out path is a
	// harness.Outputs name: created before the run simulates, written after.
	MetricsOut   string
	MetricsEpoch uint64 // sampling period in cycles (default 200_000)

	// TraceOut writes a Chrome trace-event JSON of semantic movement
	// events (demand/capture/deliver/relocate/swap/lock), viewable in
	// Perfetto (harness.Outputs.Trace). TraceLimit bounds the in-memory
	// event ring (default 1<<18; oldest events drop first); the ring grows
	// as events arrive, 32 B per event kept.
	TraceOut   string
	TraceLimit int

	// ProgressOut, when non-nil, receives a progress line per epoch.
	ProgressOut io.Writer

	// ProfileOut writes the per-block / per-PC hotness profile as JSONL at
	// end of run: demand counts and latency, subblock swap churn, lock
	// transitions and bypass/mispredict pressure per flat 2 KB block and per
	// program counter, plus a summary line (harness.Outputs.Profile).
	// Profiling is passive (counter increments only) and cannot change
	// Cycles or any counter.
	ProfileOut string
	// ProfileTopK, when positive, collects the hotness profile (even
	// without ProfileOut) and renders the K hottest blocks and PCs into
	// Report.TopOffenders.
	ProfileTopK int

	// HealthOut writes the run's health incidents (plus a summary line) as
	// JSONL (harness.Outputs.Health). The online detector itself is always
	// on — Report.Health and the manifest carry its incidents regardless —
	// this only selects the file output.
	HealthOut string

	// PostmortemOut names a directory receiving one JSON file per
	// postmortem bundle the flight recorder emitted (bundle-NNN.json, one
	// per incident; harness.Outputs.Postmortem creates the directory up
	// front). The recorder itself is always on; this only selects the
	// file output.
	PostmortemOut string

	// ExemplarsOut writes every captured tail exemplar — the worst-K
	// slowest demand accesses per service path, with their full span
	// decomposition and issue/completion context — as JSONL at end of run
	// (harness.Outputs.Exemplars). The recorder itself is always on; this
	// only selects the file output. Report.Exemplars and the manifest carry
	// the per-path summary regardless.
	ExemplarsOut string

	// Live attaches this run to a live observability server (see Serve):
	// every telemetry epoch publishes a snapshot, and the run is marked
	// done (with its final incident list) when it completes. RunID names
	// the run on the server's endpoints; default "<scheme>/<workload>".
	Live  *LiveServer
	RunID string

	Seed int64
}

// Report is the outcome of one simulation. The json tags define the schema
// of silcfm-sim's -json output (rendered with the manifest package's
// canonical encoder).
type Report struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`

	Cycles       uint64 `json:"cycles"`       // rate-mode execution time in CPU cycles
	Instructions uint64 `json:"instructions"` // total retired over all cores

	AvgMPKI           float64 `json:"avg_mpki"`           // per-core LLC misses per kilo-instruction
	AccessRate        float64 `json:"access_rate"`        // paper Eq. 1: fraction of misses serviced by NM
	NMDemandFraction  float64 `json:"nm_demand_fraction"` // Figure 8 metric
	MigrationOverhead float64 `json:"migration_overhead"` // migration+metadata bytes per demand byte

	EnergyNJ float64 `json:"energy_nj"`
	EDP      float64 `json:"edp"` // energy-delay product (nJ x cycles)

	FootprintBytes uint64 `json:"footprint_bytes"` // unique pages touched x 2 KB

	Locks             uint64  `json:"locks"`
	Unlocks           uint64  `json:"unlocks"`
	Migrations        uint64  `json:"migrations"`
	SwapsIn           uint64  `json:"swaps_in"`
	SwapsOut          uint64  `json:"swaps_out"`
	BypassedAccesses  uint64  `json:"bypassed_accesses"`
	PredictorAccuracy float64 `json:"predictor_accuracy"`

	// DemandLatency breaks demand-completion latency down by service path
	// (NM hit, FM, swap critical path, bypass, predictor mispredict);
	// empty paths are omitted.
	DemandLatency []PathLatency `json:"demand_latency,omitempty"`

	// Attribution decomposes each path's total demand latency into named
	// spans (queue, device service, metadata fetch, swap serialization,
	// mispredict retry, other). For every path the span total equals the
	// DemandLatency sum exactly — verified by the counter-conservation
	// audit at end of run. Empty paths are omitted.
	Attribution []PathSpans `json:"attribution,omitempty"`

	// TopOffenders is the rendered hottest-blocks / hottest-PCs tables when
	// Options.ProfileTopK was set.
	TopOffenders string `json:"top_offenders,omitempty"`

	// Exemplars summarizes the tail-exemplar reservoirs: per service path,
	// the number of captured worst-K accesses and the identity of the very
	// slowest one. Byte-deterministic for a fixed seed, like every counter.
	// Full exemplar records (span waterfalls, issue/completion context) go
	// to Options.ExemplarsOut as JSONL.
	Exemplars []ExemplarSummary `json:"exemplars,omitempty"`

	// TailExemplars is the rendered per-path exemplar waterfall table
	// ("tail exemplars:"), printed by silcfm-sim under the latency lines.
	TailExemplars string `json:"tail_exemplars,omitempty"`

	// Health lists the incidents the online health detector observed
	// (swap-thrash, bypass oscillation, lock churn, queue saturation,
	// predictor collapse), in deterministic order. Empty means the run
	// stayed healthy; like every counter above it is byte-deterministic
	// for a fixed seed.
	Health []HealthIncident `json:"health,omitempty"`

	// WallSeconds is the host wall-clock time of the whole run, and
	// SimCyclesPerSec the simulated-cycles-per-host-second throughput of
	// the event loop. Both are host-dependent (never byte-deterministic);
	// manifests carry them under the noise-banded "host" section.
	WallSeconds     float64 `json:"wall_seconds"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// PathLatency summarizes one service path's demand latency distribution:
// count, mean, P50/P95/P99 bucket bounds and the exact Max, in cycles.
type PathLatency = stats.PathSummary

// PathSpans is one service path's latency attribution, in cycles summed
// over all completions on that path (the manifest's attribution row).
type PathSpans = stats.PathSpans

// HealthIncident is one detected anomaly: a window of consecutive epochs
// during which one pathology condition held (see internal/health for the
// trigger definitions).
type HealthIncident = health.Incident

// HealthEvidence carries the counters accumulated while an incident was
// firing; only the fields relevant to the incident's kind are set.
type HealthEvidence = health.Evidence

// ExemplarSummary is one service path's tail-exemplar reservoir reduced to
// its manifest leaf: occupancy plus the slowest access's identity.
type ExemplarSummary = exemplar.PathSummary

// SpeedupOver returns base.Cycles / r.Cycles, the paper's figure of merit.
func (r *Report) SpeedupOver(base *Report) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// tableII returns the Table II machine with the given core count, NM and
// FM capacities and seed; a zero argument keeps the default.
func tableII(cores int, nm, fm uint64, seed int64) config.Machine {
	m := config.Default()
	if cores > 0 {
		m.Cores = cores
	}
	if nm > 0 {
		m.NM = config.HBM(nm)
	}
	if fm > 0 {
		m.FM = config.DDR3(fm)
	}
	if seed != 0 {
		m.Seed = seed
	}
	return m
}

// machine converts Options into the internal machine description.
func (o Options) machine() (config.Machine, error) {
	m := tableII(o.Cores, o.NMCapacity, o.FMCapacity, o.Seed)
	switch o.Scheme {
	case "", SILCFM:
		m.Scheme = config.SchemeSILCFM
	case Baseline, Random, HMA, CAMEO, CAMEOPrefetch, PoM:
		m.Scheme = config.SchemeName(o.Scheme)
	default:
		return m, fmt.Errorf("silcfm: unknown scheme %q", o.Scheme)
	}
	if o.SILC != nil {
		m.SILC.Features = config.SILCFeatures{
			Locking:       o.SILC.Locking,
			Ways:          o.SILC.Ways,
			Bypass:        o.SILC.Bypass,
			Predictor:     o.SILC.Predictor,
			BitVecHistory: o.SILC.History,
		}
		if m.SILC.Features.Ways == 0 {
			m.SILC.Features.Ways = 1
		}
	}
	if o.Tuning != nil {
		if o.Tuning.HotThreshold > 0 {
			m.SILC.HotThreshold = o.Tuning.HotThreshold
		}
		if o.Tuning.AgingInterval > 0 {
			m.SILC.AgingInterval = o.Tuning.AgingInterval
		}
		if o.Tuning.BypassTarget > 0 {
			m.SILC.BypassTarget = o.Tuning.BypassTarget
		}
		if o.Tuning.HistoryEntries > 0 {
			m.SILC.HistoryEntries = o.Tuning.HistoryEntries
		}
		if o.Tuning.PredictorEntries > 0 {
			m.SILC.PredictorEntries = o.Tuning.PredictorEntries
		}
	}
	return m, m.Validate()
}

// Run executes one simulation to completion and reduces its statistics.
func Run(o Options) (*Report, error) {
	res, err := runResult(o)
	if err != nil {
		return nil, err
	}
	return reportOf(res, o.ProfileTopK), nil
}

// RunEntry executes one simulation and returns both the reduced Report and
// the run-manifest entry capturing its complete counter state, under the
// given entry ID (conventionally "<scheme>/<workload>").
func RunEntry(o Options, id string) (*Report, *manifest.Entry, error) {
	res, err := runResult(o)
	if err != nil {
		return nil, nil, err
	}
	e := manifest.FromResult(id, res)
	return reportOf(res, o.ProfileTopK), &e, nil
}

// runResult runs the simulation and enforces the end-of-run audits.
func runResult(o Options) (*harness.Result, error) {
	m, err := o.machine()
	if err != nil {
		return nil, err
	}
	wl := o.Workload
	if wl == "" && o.TracePath == "" && len(o.Mix) == 0 {
		wl = "mcf"
	}
	spec := harness.Spec{
		Machine:           m,
		Workload:          wl,
		InstrPerCore:      o.InstrPerCore,
		ScaleInstrByClass: o.ScaleInstrByClass,
		TracePath:         o.TracePath,
		Mix:               o.Mix,
		ShadowCheck:       o.ShadowCheck,
		Telemetry: &telemetry.Config{
			EpochCycles: o.MetricsEpoch,
			TraceLimit:  o.TraceLimit,
			ProgressW:   o.ProgressOut,
			Profile:     o.ProfileTopK > 0,
		},
		Out: harness.Outputs{
			Metrics:    o.MetricsOut,
			Trace:      o.TraceOut,
			Profile:    o.ProfileOut,
			Health:     o.HealthOut,
			Exemplars:  o.ExemplarsOut,
			Postmortem: o.PostmortemOut,
		},
	}
	if o.FootprintScaleDen > 1 {
		spec.FootScaleNum, spec.FootScaleDen = 1, o.FootprintScaleDen
	}
	id := o.RunID
	if id == "" {
		id = string(m.Scheme) + "/" + wl
	}
	done := harness.AttachLive(&spec, o.Live.Registry(), id)
	res, err := harness.Run(spec)
	done(res)
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, fmt.Errorf("silcfm: %w", err)
	}
	return res, nil
}

func reportOf(res *harness.Result, topK int) *Report {
	r := &Report{
		Workload:          res.Workload,
		Scheme:            res.Scheme,
		Cycles:            res.Cycles,
		Instructions:      res.TotalInstructions(),
		AvgMPKI:           res.AvgMPKI(),
		AccessRate:        res.Mem.AccessRate(),
		NMDemandFraction:  res.Mem.DemandNMFraction(),
		MigrationOverhead: res.Mem.MigrationOverheadRatio(),
		EnergyNJ:          res.EnergyNJ,
		EDP:               res.EDP(),
		FootprintBytes:    res.FootprintPages * 2048,
		Locks:             res.Mem.Locks,
		Unlocks:           res.Mem.Unlocks,
		Migrations:        res.Mem.Migrations,
		SwapsIn:           res.Mem.SwapsIn,
		SwapsOut:          res.Mem.SwapsOut,
		BypassedAccesses:  res.Mem.BypassedAccesses,
		PredictorAccuracy: res.Mem.PredictorAccuracy(),
		DemandLatency:     res.Lat.Summaries(),
		Attribution:       res.Attr.Summaries(),
		Health:            res.Health,
		WallSeconds:       res.WallSeconds,
		SimCyclesPerSec:   res.SimCyclesPerSec,
	}
	if topK > 0 && res.Profile != nil {
		r.TopOffenders = res.Profile.TopOffenders(topK)
	}
	if len(res.Exemplars) > 0 {
		r.Exemplars = exemplar.Summarize(res.Exemplars)
		var b strings.Builder
		exemplar.RenderWaterfall(&b, res.Exemplars, reportWaterfallTop)
		r.TailExemplars = b.String()
	}
	return r
}

// reportWaterfallTop bounds the exemplars rendered per path in
// Report.TailExemplars; the full reservoirs go to Options.ExemplarsOut.
const reportWaterfallTop = 4

// Package stats collects and reduces simulation counters into the metrics
// the paper reports: access rate (Eq. 1), demand-bandwidth split between NM
// and FM (Figure 8), speedup over the no-NM baseline (Figures 6, 7, 9) and
// supporting distributions.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// MemLevel distinguishes the two flat-memory levels.
type MemLevel int

const (
	NM MemLevel = iota // near memory (die-stacked HBM)
	FM                 // far memory (off-chip DDR3)
)

func (l MemLevel) String() string {
	if l == NM {
		return "NM"
	}
	return "FM"
}

// TrafficClass separates demand traffic from scheme-generated traffic;
// Figure 8 plots demand traffic only.
type TrafficClass int

const (
	Demand    TrafficClass = iota // data requested by the cores
	Migration                     // swap/migration/prefetch/writeback traffic
	Metadata                      // remap-entry and counter traffic
)

func (c TrafficClass) String() string {
	switch c {
	case Demand:
		return "demand"
	case Migration:
		return "migration"
	default:
		return "metadata"
	}
}

// Memory accumulates per-run memory-system counters. Not safe for
// concurrent use; each simulation owns one.
type Memory struct {
	LLCMisses        uint64       // requests entering the flat memory system
	ServicedNM       uint64       // demand requests whose data came from NM
	ServicedFM       uint64       // demand requests whose data came from FM
	Bytes            [2][3]uint64 // [level][class] bytes moved
	SwapsIn          uint64       // subblocks/blocks moved FM -> NM
	SwapsOut         uint64       // subblocks/blocks moved NM -> FM
	Locks            uint64       // blocks locked (SILC-FM)
	Unlocks          uint64
	Migrations       uint64 // whole-block migrations (PoM/HMA)
	BypassedAccesses uint64 // demand requests deliberately serviced from FM while bypassing
	PredictorHits    uint64
	PredictorMisses  uint64
	RowHits          [2]uint64
	RowMisses        [2]uint64 // closed-bank misses + row conflicts
	// DRAM introspection totals (internal/dram's per-bank/per-channel
	// ledgers reduced to device level; [NM, FM]).
	RowConflicts         [2]uint64 // precharge-then-activate row misses
	RefreshCloses        [2]uint64 // rows force-closed by periodic refresh
	BusBusyCycles        [2]uint64 // data-bus burst occupancy, summed over channels
	BankBusyCycles       [2]uint64 // bank command occupancy, summed over banks
	ReadQueueWaitCycles  [2]uint64 // read-queue residency (arrival to issue)
	WriteQueueWaitCycles [2]uint64 // write-queue residency (arrival to issue)
	// ExtraEnergyPJ accounts energy for traffic modeled in aggregate
	// rather than submitted to a device (HMA's bulk epoch migrations).
	ExtraEnergyPJ float64
	// OSOverheadCycles accumulates software costs (PTE updates, TLB
	// shootdowns, epoch sweeps) charged by OS-managed schemes.
	OSOverheadCycles uint64
}

// AddBytes records traffic.
func (m *Memory) AddBytes(level MemLevel, class TrafficClass, n uint64) {
	m.Bytes[level][class] += n
}

// AccessRate implements the paper's Equation 1: the fraction of LLC misses
// serviced from NM. Returns 0 for an idle run.
func (m *Memory) AccessRate() float64 {
	if m.LLCMisses == 0 {
		return 0
	}
	return float64(m.ServicedNM) / float64(m.LLCMisses)
}

// DemandNMFraction is Figure 8's metric: NM's share of demand-traffic bytes.
func (m *Memory) DemandNMFraction() float64 {
	nm, fm := m.Bytes[NM][Demand], m.Bytes[FM][Demand]
	if nm+fm == 0 {
		return 0
	}
	return float64(nm) / float64(nm+fm)
}

// TotalBytes returns all bytes moved at a level.
func (m *Memory) TotalBytes(level MemLevel) uint64 {
	t := uint64(0)
	for _, b := range m.Bytes[level] {
		t += b
	}
	return t
}

// MigrationOverheadRatio returns migration+metadata bytes per demand byte, a
// measure of the bandwidth tax a scheme pays (PoM's weakness).
func (m *Memory) MigrationOverheadRatio() float64 {
	demand := m.Bytes[NM][Demand] + m.Bytes[FM][Demand]
	if demand == 0 {
		return 0
	}
	extra := m.Bytes[NM][Migration] + m.Bytes[FM][Migration] +
		m.Bytes[NM][Metadata] + m.Bytes[FM][Metadata]
	return float64(extra) / float64(demand)
}

// Counter is one named cumulative counter, for metric exposition (the
// live observability server's Prometheus /metrics endpoint).
type Counter struct {
	Name  string
	Value uint64
}

// Counters enumerates every cumulative Memory counter in fixed
// declaration order, so exposition output is deterministic and new
// counters only need to be added here to be exported.
func (m *Memory) Counters() []Counter {
	return []Counter{
		{"llc_misses", m.LLCMisses},
		{"serviced_nm", m.ServicedNM},
		{"serviced_fm", m.ServicedFM},
		{"demand_bytes_nm", m.Bytes[NM][Demand]},
		{"demand_bytes_fm", m.Bytes[FM][Demand]},
		{"migration_bytes_nm", m.Bytes[NM][Migration]},
		{"migration_bytes_fm", m.Bytes[FM][Migration]},
		{"metadata_bytes_nm", m.Bytes[NM][Metadata]},
		{"metadata_bytes_fm", m.Bytes[FM][Metadata]},
		{"swaps_in", m.SwapsIn},
		{"swaps_out", m.SwapsOut},
		{"locks", m.Locks},
		{"unlocks", m.Unlocks},
		{"migrations", m.Migrations},
		{"bypassed_accesses", m.BypassedAccesses},
		{"predictor_hits", m.PredictorHits},
		{"predictor_misses", m.PredictorMisses},
		{"row_hits_nm", m.RowHits[NM]},
		{"row_misses_nm", m.RowMisses[NM]},
		{"row_hits_fm", m.RowHits[FM]},
		{"row_misses_fm", m.RowMisses[FM]},
		{"row_conflicts_nm", m.RowConflicts[NM]},
		{"row_conflicts_fm", m.RowConflicts[FM]},
		{"refresh_closes_nm", m.RefreshCloses[NM]},
		{"refresh_closes_fm", m.RefreshCloses[FM]},
		{"bus_busy_cycles_nm", m.BusBusyCycles[NM]},
		{"bus_busy_cycles_fm", m.BusBusyCycles[FM]},
		{"bank_busy_cycles_nm", m.BankBusyCycles[NM]},
		{"bank_busy_cycles_fm", m.BankBusyCycles[FM]},
		{"read_queue_wait_nm", m.ReadQueueWaitCycles[NM]},
		{"read_queue_wait_fm", m.ReadQueueWaitCycles[FM]},
		{"write_queue_wait_nm", m.WriteQueueWaitCycles[NM]},
		{"write_queue_wait_fm", m.WriteQueueWaitCycles[FM]},
		{"os_overhead_cycles", m.OSOverheadCycles},
	}
}

// PredictorAccuracy returns the way/location predictor hit rate.
func (m *Memory) PredictorAccuracy() float64 {
	t := m.PredictorHits + m.PredictorMisses
	if t == 0 {
		return 0
	}
	return float64(m.PredictorHits) / float64(t)
}

// Core accumulates per-core execution counters.
type Core struct {
	Instructions uint64
	MemRefs      uint64
	L1Hits       uint64
	L2Hits       uint64
	LLCMisses    uint64
	FinishCycle  uint64
	StallCycles  uint64
}

// MPKI returns LLC misses per kilo-instruction for this core.
func (c *Core) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(c.LLCMisses) / float64(c.Instructions)
}

// Run aggregates one complete simulation.
type Run struct {
	Workload       string
	Scheme         string
	Cores          []Core
	Mem            Memory
	Cycles         uint64  // execution time: when all cores finished
	EnergyNJ       float64 // total memory-system energy, nanojoules
	FootprintPages uint64  // unique 2KB pages touched
}

// TotalInstructions sums instructions over cores.
func (r *Run) TotalInstructions() uint64 {
	var t uint64
	for i := range r.Cores {
		t += r.Cores[i].Instructions
	}
	return t
}

// AvgMPKI returns the per-core average MPKI (Table III reports per-core).
func (r *Run) AvgMPKI() float64 {
	if len(r.Cores) == 0 {
		return 0
	}
	s := 0.0
	for i := range r.Cores {
		s += r.Cores[i].MPKI()
	}
	return s / float64(len(r.Cores))
}

// Speedup returns baselineCycles / r.Cycles, the paper's figure of merit.
func (r *Run) Speedup(baselineCycles uint64) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baselineCycles) / float64(r.Cycles)
}

// EDP returns the energy-delay product in nanojoule-cycles.
func (r *Run) EDP() float64 { return r.EnergyNJ * float64(r.Cycles) }

// GeoMean returns the geometric mean of xs, ignoring non-positive values.
func GeoMean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// Histogram is a simple fixed-bucket histogram for latency distributions.
type Histogram struct {
	BucketWidth uint64
	Counts      []uint64
	N           uint64
	Sum         uint64
	Max         uint64
}

// NewHistogram creates a histogram with the given bucket width and count.
func NewHistogram(bucketWidth uint64, buckets int) *Histogram {
	return &Histogram{BucketWidth: bucketWidth, Counts: make([]uint64, buckets)}
}

// width is the effective bucket width: a zero-valued Histogram is treated
// as width 1 rather than dividing by zero.
func (h *Histogram) width() uint64 {
	if h.BucketWidth == 0 {
		return 1
	}
	return h.BucketWidth
}

// Add records a sample. Samples beyond the last bucket clamp into it.
func (h *Histogram) Add(v uint64) {
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	if len(h.Counts) == 0 {
		return
	}
	i := v / h.width()
	if i >= uint64(len(h.Counts)) {
		i = uint64(len(h.Counts) - 1)
	}
	h.Counts[i]++
}

// Mean returns the average sample.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Percentile returns an upper bound on the p-th percentile (0<p<=100) using
// bucket upper edges.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.N == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.N)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			edge := uint64(i+1) * h.width()
			// The overflow bucket holds clamped samples whose values can
			// exceed its nominal edge; the observed Max is the true bound.
			if i == len(h.Counts)-1 && h.Max > edge {
				return h.Max
			}
			return edge
		}
	}
	return h.Max
}

// DemandPath classifies how one demand access was serviced, for the
// per-path latency histograms. The paths follow the decision points of
// SILC-FM's demand pipeline; schemes without a given mechanism simply
// never populate that bucket.
type DemandPath int

const (
	// PathNMHit is a demand serviced from near memory with no data
	// movement.
	PathNMHit DemandPath = iota
	// PathFM is a demand serviced from far memory with no data movement
	// (non-resident block, locked-out home subblock, baseline traffic).
	PathFM
	// PathSwap is a demand that rode the critical path of a subblock swap
	// (SILC-FM Figure 2: the demand transfer doubles as a migration leg).
	PathSwap
	// PathBypass is a demand deliberately serviced from FM while the
	// bandwidth-balancing governor suppresses swaps (§III-E).
	PathBypass
	// PathMispredict is a demand that paid the serialized remap-metadata
	// fetch after a way/location predictor miss (§III-F).
	PathMispredict

	NumDemandPaths
)

func (p DemandPath) String() string {
	switch p {
	case PathNMHit:
		return "nm-hit"
	case PathFM:
		return "fm"
	case PathSwap:
		return "swap"
	case PathBypass:
		return "bypass"
	case PathMispredict:
		return "mispredict"
	default:
		return "unknown"
	}
}

// latencyBucketWidth/latencyBuckets size the per-path histograms: 16-cycle
// resolution out to 16K cycles, beyond which samples clamp into the
// overflow bucket (whose percentile bound falls back to the observed Max).
const (
	latencyBucketWidth = 16
	latencyBuckets     = 1024
)

// PathLatencies accumulates demand-latency histograms per service path.
type PathLatencies struct {
	Hist [NumDemandPaths]Histogram
}

// NewPathLatencies builds the per-path histogram set.
func NewPathLatencies() *PathLatencies {
	p := &PathLatencies{}
	for i := range p.Hist {
		p.Hist[i] = Histogram{BucketWidth: latencyBucketWidth, Counts: make([]uint64, latencyBuckets)}
	}
	return p
}

// Observe records one demand completion latency under path.
func (p *PathLatencies) Observe(path DemandPath, lat uint64) {
	if path < 0 || path >= NumDemandPaths {
		return
	}
	p.Hist[path].Add(lat)
}

// PathSummary is the reduced form of one path's latency histogram. The json
// tags define the demand_latency rows of silcfm-sim's -json report.
type PathSummary struct {
	Path  string  `json:"path"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	// P50/P95/P99 are percentile bounds in cycles (bucket upper edges).
	P50 uint64 `json:"p50"`
	P95 uint64 `json:"p95"`
	P99 uint64 `json:"p99"`
	// Max is the exact worst observed latency (not a bucket bound); the tail
	// exemplars reference it, so reports print it alongside the percentiles.
	Max uint64 `json:"max"`
}

// Summaries reduces every populated path to count/mean/p50/p95/p99/max, in
// DemandPath order (deterministic). Nil-safe: a nil receiver has no paths.
func (p *PathLatencies) Summaries() []PathSummary {
	if p == nil {
		return nil
	}
	var out []PathSummary
	for i := DemandPath(0); i < NumDemandPaths; i++ {
		h := &p.Hist[i]
		if h.N == 0 {
			continue
		}
		out = append(out, PathSummary{
			Path:  i.String(),
			Count: h.N,
			Mean:  h.Mean(),
			P50:   h.Percentile(50),
			P95:   h.Percentile(95),
			P99:   h.Percentile(99),
			Max:   h.Max,
		})
	}
	return out
}

// Table formats labeled rows for experiment output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := t.Title + "\n"
	line := ""
	for i, c := range t.Columns {
		line += pad(c, widths[i]) + "  "
	}
	out += line + "\n"
	for _, r := range t.Rows {
		line = ""
		for i, c := range r {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			line += pad(c, w) + "  "
		}
		out += line + "\n"
	}
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

// CSV renders the table as comma-separated values (header row first);
// cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// SortedKeys returns map keys in sorted order, for deterministic output.
func SortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// F formats a float to 3 decimal places for table cells.
func F(x float64) string { return fmt.Sprintf("%.3f", x) }

// F2 formats a float to 2 decimal places for table cells.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }

// Ratio returns num/den, or 0 when the quotient is undefined: zero or
// non-finite denominator, or non-finite numerator. Every rate, fraction and
// ETA the drivers report funnels through this, so an idle epoch or a
// zero-length run yields 0 instead of poisoning JSONL/CSV/manifest output
// with NaN or Inf.
func Ratio(num, den float64) float64 {
	if den == 0 || math.IsInf(den, 0) || math.IsNaN(den) || math.IsInf(num, 0) || math.IsNaN(num) {
		return 0
	}
	return num / den
}

// Package manifest serializes completed simulation runs into canonical,
// byte-deterministic JSON run manifests, and diffs two manifests into a
// regression verdict. A manifest is the machine-readable record of what a
// run produced: the config fingerprint that identifies the simulated
// machine, every deterministic simulation counter (cycles, serviced
// demands, byte ledgers, latency histogram sums, span attribution, energy),
// and the host-side cost of producing it (wall time, simulated-cycles-per-
// second throughput, allocations).
//
// The two metric classes are deliberately separated: everything under an
// entry's "config" and "sim" keys is a pure function of the simulated
// machine and seed, so across two runs of the same code it must match
// byte-for-byte — any difference is a correctness or behavior change.
// Everything under "host" (and the manifest-level "env") depends on the
// machine the simulator ran on and is only comparable within a noise band.
// Diff enforces exactly that split.
package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry/exemplar"
)

// Schema is the manifest format version; Decode rejects other versions so a
// stale baseline fails loudly instead of diffing garbage.
const Schema = 1

// Manifest is one run (or suite of runs) of the simulator.
type Manifest struct {
	Schema  int     `json:"schema"`
	Tool    string  `json:"tool"`
	Label   string  `json:"label,omitempty"`
	Env     Env     `json:"env"`
	Entries []Entry `json:"entries"`
}

// Env records the host environment that produced the manifest. Like Host it
// is machine-dependent and excluded from exact comparison.
type Env struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// New builds an empty manifest stamped with the current environment.
func New(tool, label string) *Manifest {
	return &Manifest{
		Schema: Schema,
		Tool:   tool,
		Label:  label,
		Env:    Env{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH},
	}
}

// Add appends an entry, keeping Entries sorted by ID so concurrently
// produced suites encode deterministically.
func (m *Manifest) Add(e Entry) {
	i := sort.Search(len(m.Entries), func(i int) bool { return m.Entries[i].ID >= e.ID })
	m.Entries = append(m.Entries, Entry{})
	copy(m.Entries[i+1:], m.Entries[i:])
	m.Entries[i] = e
}

// Entry is one simulation run.
type Entry struct {
	ID     string `json:"id"`
	Config Config `json:"config"`
	Sim    Sim    `json:"sim"`
	Host   Host   `json:"host"`
}

// Config identifies what was simulated. Fingerprint hashes the complete
// machine description plus run parameters, so two entries with equal
// fingerprints simulated byte-identical configurations; the named fields
// are the human-readable subset.
type Config struct {
	Fingerprint       string `json:"fingerprint"`
	Scheme            string `json:"scheme"`
	Workload          string `json:"workload"`
	Seed              int64  `json:"seed"`
	Cores             int    `json:"cores"`
	NMBytes           uint64 `json:"nm_bytes"`
	FMBytes           uint64 `json:"fm_bytes"`
	InstrPerCore      uint64 `json:"instr_per_core"`
	ScaleInstrByClass bool   `json:"scale_instr_by_class"`
	FootScaleNum      int    `json:"foot_scale_num,omitempty"`
	FootScaleDen      int    `json:"foot_scale_den,omitempty"`
}

// Sim holds every deterministic simulation metric. Given the same code and
// the same Config, every field is reproduced exactly on any host.
type Sim struct {
	Cycles           uint64            `json:"cycles"`
	Instructions     uint64            `json:"instructions"`
	FootprintPages   uint64            `json:"footprint_pages"`
	LLCMisses        uint64            `json:"llc_misses"`
	ServicedNM       uint64            `json:"serviced_nm"`
	ServicedFM       uint64            `json:"serviced_fm"`
	BytesNM          ClassBytes        `json:"bytes_nm"`
	BytesFM          ClassBytes        `json:"bytes_fm"`
	SwapsIn          uint64            `json:"swaps_in"`
	SwapsOut         uint64            `json:"swaps_out"`
	Locks            uint64            `json:"locks"`
	Unlocks          uint64            `json:"unlocks"`
	Migrations       uint64            `json:"migrations"`
	BypassedAccesses uint64            `json:"bypassed_accesses"`
	PredictorHits    uint64            `json:"predictor_hits"`
	PredictorMisses  uint64            `json:"predictor_misses"`
	RowHitsNM        uint64            `json:"row_hits_nm"`
	RowMissesNM      uint64            `json:"row_misses_nm"`
	RowHitsFM        uint64            `json:"row_hits_fm"`
	RowMissesFM      uint64            `json:"row_misses_fm"`
	DramNM           DramSim           `json:"dram_nm"`
	DramFM           DramSim           `json:"dram_fm"`
	OSOverheadCycles uint64            `json:"os_overhead_cycles"`
	Energy           Energy            `json:"energy"`
	Latency          []PathLatency     `json:"latency,omitempty"`
	Attribution      []stats.PathSpans `json:"attribution,omitempty"`
	// Incidents are the run's closed health incidents (internal/health).
	// They are a pure function of the simulated machine and seed, so they
	// diff sim-exact like every counter above: a thrash incident appearing
	// or vanishing between two builds is a behavior change.
	Incidents []health.Incident `json:"incidents,omitempty"`
	// Exemplars reduces the tail-exemplar reservoirs to one summary per
	// demand path (worst access identity plus reservoir occupancy). The
	// recorder is byte-deterministic, so the summary diffs sim-exact: a
	// different worst access between two builds is a behavior change. Full
	// exemplar records are too bulky for manifests and go to the
	// -exemplars-out JSONL stream instead.
	Exemplars []exemplar.PathSummary `json:"exemplars,omitempty"`
}

// DramSim is one device's DRAM introspection ledger reduced to totals
// (internal/dram's per-bank/per-channel counters). Sim-exact like every
// other counter: a drift here means the device model's scheduling or
// refresh behavior changed.
type DramSim struct {
	RowConflicts         uint64 `json:"row_conflicts"`
	RefreshCloses        uint64 `json:"refresh_closes"`
	BusBusyCycles        uint64 `json:"bus_busy_cycles"`
	BankBusyCycles       uint64 `json:"bank_busy_cycles"`
	ReadQueueWaitCycles  uint64 `json:"read_queue_wait_cycles"`
	WriteQueueWaitCycles uint64 `json:"write_queue_wait_cycles"`
}

// ClassBytes is one level's byte ledger by traffic class.
type ClassBytes struct {
	Demand    uint64 `json:"demand"`
	Migration uint64 `json:"migration"`
	Metadata  uint64 `json:"metadata"`
}

// Energy is the run's energy breakdown in nanojoules.
type Energy struct {
	NMDynamicNJ  float64 `json:"nm_dynamic_nj"`
	FMDynamicNJ  float64 `json:"fm_dynamic_nj"`
	BackgroundNJ float64 `json:"background_nj"`
	AggregateNJ  float64 `json:"aggregate_nj"`
	TotalNJ      float64 `json:"total_nj"`
}

// PathLatency is one demand path's latency histogram reduced to exact
// (count/sum/max) and bucketed (percentile-bound) statistics.
type PathLatency struct {
	Path  string `json:"path"`
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
	P50   uint64 `json:"p50"`
	P95   uint64 `json:"p95"`
	P99   uint64 `json:"p99"`
}

// Host holds the machine-dependent cost of producing the run. Diff compares
// these within a noise band, never exactly.
type Host struct {
	WallSeconds     float64 `json:"wall_seconds"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	AllocObjects    uint64  `json:"alloc_objects,omitempty"`
	AllocBytes      uint64  `json:"alloc_bytes,omitempty"`
	Reps            int     `json:"reps,omitempty"`
}

// Fingerprint returns a short stable hash of v's canonical encoding.
func Fingerprint(v any) string {
	b, err := Canonical(v)
	if err != nil {
		// Every fingerprinted type in this module is plain data; an encode
		// failure is a programming error, not a runtime condition.
		panic(fmt.Sprintf("manifest: fingerprint: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// ConfigOf derives the manifest Config from the spec a run was launched
// with (harness.Run stamps it into Result.Spec). The fingerprint itself is
// computed by harness.Spec.Fingerprint so non-manifest consumers (the
// flight recorder's postmortem bundles) share the identical identity.
func ConfigOf(spec harness.Spec) Config {
	m := spec.Machine
	return Config{
		Fingerprint:       spec.Fingerprint(),
		Scheme:            string(m.Scheme),
		Workload:          spec.Workload,
		Seed:              m.Seed,
		Cores:             m.Cores,
		NMBytes:           m.NM.Capacity,
		FMBytes:           m.FM.Capacity,
		InstrPerCore:      spec.InstrPerCore,
		ScaleInstrByClass: spec.ScaleInstrByClass,
		FootScaleNum:      spec.FootScaleNum,
		FootScaleDen:      spec.FootScaleDen,
	}
}

// FromResult reduces one completed run into a manifest entry.
func FromResult(id string, res *harness.Result) Entry {
	e := Entry{
		ID:     id,
		Config: ConfigOf(res.Spec),
		Sim: Sim{
			Cycles:           res.Cycles,
			Instructions:     res.TotalInstructions(),
			FootprintPages:   res.FootprintPages,
			LLCMisses:        res.Mem.LLCMisses,
			ServicedNM:       res.Mem.ServicedNM,
			ServicedFM:       res.Mem.ServicedFM,
			BytesNM:          classBytes(res.Mem.Bytes[stats.NM]),
			BytesFM:          classBytes(res.Mem.Bytes[stats.FM]),
			SwapsIn:          res.Mem.SwapsIn,
			SwapsOut:         res.Mem.SwapsOut,
			Locks:            res.Mem.Locks,
			Unlocks:          res.Mem.Unlocks,
			Migrations:       res.Mem.Migrations,
			BypassedAccesses: res.Mem.BypassedAccesses,
			PredictorHits:    res.Mem.PredictorHits,
			PredictorMisses:  res.Mem.PredictorMisses,
			RowHitsNM:        res.Mem.RowHits[stats.NM],
			RowMissesNM:      res.Mem.RowMisses[stats.NM],
			RowHitsFM:        res.Mem.RowHits[stats.FM],
			RowMissesFM:      res.Mem.RowMisses[stats.FM],
			DramNM:           dramSim(&res.Mem, stats.NM),
			DramFM:           dramSim(&res.Mem, stats.FM),
			OSOverheadCycles: res.Mem.OSOverheadCycles,
			Energy: Energy{
				NMDynamicNJ:  res.Energy.NMDynamicNJ,
				FMDynamicNJ:  res.Energy.FMDynamicNJ,
				BackgroundNJ: res.Energy.BackgroundNJ,
				AggregateNJ:  res.Energy.AggregateNJ,
				TotalNJ:      res.Energy.TotalNJ(),
			},
		},
		Host: Host{
			WallSeconds:     res.WallSeconds,
			SimCyclesPerSec: res.SimCyclesPerSec,
		},
	}
	if res.Lat != nil {
		for p := stats.DemandPath(0); p < stats.NumDemandPaths; p++ {
			h := &res.Lat.Hist[p]
			if h.N == 0 {
				continue
			}
			e.Sim.Latency = append(e.Sim.Latency, PathLatency{
				Path:  p.String(),
				Count: h.N,
				Sum:   h.Sum,
				Max:   h.Max,
				P50:   h.Percentile(50),
				P95:   h.Percentile(95),
				P99:   h.Percentile(99),
			})
		}
	}
	e.Sim.Incidents = append([]health.Incident(nil), res.Health...)
	e.Sim.Exemplars = exemplar.Summarize(res.Exemplars)
	e.Sim.Attribution = res.Attr.Summaries()
	return e
}

func dramSim(m *stats.Memory, lv stats.MemLevel) DramSim {
	return DramSim{
		RowConflicts:         m.RowConflicts[lv],
		RefreshCloses:        m.RefreshCloses[lv],
		BusBusyCycles:        m.BusBusyCycles[lv],
		BankBusyCycles:       m.BankBusyCycles[lv],
		ReadQueueWaitCycles:  m.ReadQueueWaitCycles[lv],
		WriteQueueWaitCycles: m.WriteQueueWaitCycles[lv],
	}
}

func classBytes(b [3]uint64) ClassBytes {
	return ClassBytes{
		Demand:    b[stats.Demand],
		Migration: b[stats.Migration],
		Metadata:  b[stats.Metadata],
	}
}

// Canonical encodes any value as canonical JSON: two-space indentation,
// struct fields in declaration order, map keys sorted, shortest round-trip
// float formatting, trailing newline. Encoding the same value always yields
// the same bytes, which is what makes exact manifest comparison meaningful.
func Canonical(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// Encode renders the manifest as canonical JSON.
func (m *Manifest) Encode() ([]byte, error) { return Canonical(m) }

// Decode parses a manifest, rejecting unknown schema versions.
func Decode(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: decode: %w", err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("manifest: schema %d, this tool reads %d", m.Schema, Schema)
	}
	return &m, nil
}

// ReadFile loads a manifest from disk.
func ReadFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("manifest: %s: %w", path, err)
	}
	return m, nil
}

// WriteFile writes the manifest to disk as canonical JSON.
func (m *Manifest) WriteFile(path string) error {
	b, err := m.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

package telemetry

import (
	"encoding/json"
	"io"
	"reflect"
	"strconv"
	"strings"

	"silcfm/internal/dram"
	"silcfm/internal/mem"
	"silcfm/internal/stats"
)

// Sample is one epoch's worth of activity. Counter fields are DELTAS over
// the epoch (they sum to the end-of-run totals); Cycle, AccessRate, the
// queue depths and the gauges are instantaneous at the epoch boundary.
// Field order is fixed by the struct, so JSONL output is byte-deterministic;
// the CSV columns are the scalar fields' json names in the same order.
type Sample struct {
	Epoch      uint64 `json:"epoch"`
	Cycle      uint64 `json:"cycle"`
	SpanCycles uint64 `json:"span_cycles"`

	LLCMisses  uint64  `json:"llc_misses"`
	ServicedNM uint64  `json:"serviced_nm"`
	ServicedFM uint64  `json:"serviced_fm"`
	AccessRate float64 `json:"access_rate"` // NM share of this epoch's misses (Eq. 1 windowed)

	DemandBytesNM    uint64 `json:"demand_bytes_nm"`
	DemandBytesFM    uint64 `json:"demand_bytes_fm"`
	MigrationBytesNM uint64 `json:"migration_bytes_nm"`
	MigrationBytesFM uint64 `json:"migration_bytes_fm"`
	MetadataBytesNM  uint64 `json:"metadata_bytes_nm"`
	MetadataBytesFM  uint64 `json:"metadata_bytes_fm"`

	SwapsIn         uint64 `json:"swaps_in"`
	SwapsOut        uint64 `json:"swaps_out"`
	Locks           uint64 `json:"locks"`
	Unlocks         uint64 `json:"unlocks"`
	Migrations      uint64 `json:"migrations"`
	Bypassed        uint64 `json:"bypassed"`
	PredictorHits   uint64 `json:"predictor_hits"`
	PredictorMisses uint64 `json:"predictor_misses"`

	RowHitsNM   uint64 `json:"row_hits_nm"`
	RowMissesNM uint64 `json:"row_misses_nm"`
	RowHitsFM   uint64 `json:"row_hits_fm"`
	RowMissesFM uint64 `json:"row_misses_fm"`

	// DRAM introspection deltas/rates over the epoch. RowConflicts is the
	// precharge-then-activate subset of RowMisses; RowHitRate is
	// hits/(hits+misses); BusUtil is data-bus burst occupancy per channel
	// per cycle (bursts are booked at issue, so a boundary epoch can read
	// slightly above 1); BankImbalance is the peak bank's row operations
	// over the per-bank mean (0 when idle, 1 when perfectly balanced).
	RowConflictsNM  uint64  `json:"row_conflicts_nm"`
	RowConflictsFM  uint64  `json:"row_conflicts_fm"`
	RowHitRateNM    float64 `json:"row_hit_rate_nm"`
	RowHitRateFM    float64 `json:"row_hit_rate_fm"`
	BusUtilNM       float64 `json:"bus_util_nm"`
	BusUtilFM       float64 `json:"bus_util_fm"`
	BankImbalanceNM float64 `json:"bank_imbalance_nm"`
	BankImbalanceFM float64 `json:"bank_imbalance_fm"`

	QueueNM int `json:"queue_nm"`
	QueueFM int `json:"queue_fm"`
	// PeakQueueNM/FM are the queue-depth high-water marks over the epoch
	// (reset at each boundary); the instantaneous depths alias bursts.
	PeakQueueNM int `json:"peak_queue_nm"`
	PeakQueueFM int `json:"peak_queue_fm"`

	Gauges []mem.Gauge `json:"gauges,omitempty"`
}

// DramDeviceEpoch is one device's per-bank DRAM activity over an epoch:
// row operations and conflicts per bank, flat-indexed
// [channel*BanksPerChannel + bank]. The slices are owned by the sampler and
// overwritten each epoch; consumers must copy what they keep.
type DramDeviceEpoch struct {
	Channels        int
	BanksPerChannel int
	BankAccesses    []uint64 // row operations (hits+misses+conflicts) this epoch
	BankConflicts   []uint64 // row conflicts this epoch
}

// DramEpoch carries both devices' per-bank epoch deltas (the bank-heatmap
// feed); the device-level rates ride in Sample itself.
type DramEpoch struct {
	NM DramDeviceEpoch
	FM DramDeviceEpoch
}

// sampler snapshots counters each epoch and streams deltas. w may be nil
// when samples are only consumed in memory (Config.OnEpoch).
type sampler struct {
	w   io.Writer
	csv bool
	sys *mem.System
	gp  mem.GaugeProvider

	epoch     uint64
	lastCycle uint64
	prev      stats.Memory
	prevRow   [2][2]uint64 // [level][hit/miss]

	// DRAM introspection deltas: previous per-bank/per-channel ledger
	// snapshots and the reused per-epoch output buffers, all allocated once
	// here so the per-epoch path stays allocation-free.
	prevBank [2][]dram.BankCounters
	prevChan [2][]dram.ChannelCounters
	dram     DramEpoch

	wroteHeader bool
	gaugeNames  []string // CSV gauge column order, fixed at the first sample
}

func newSampler(w io.Writer, csv bool, sys *mem.System, gp mem.GaugeProvider) *sampler {
	s := &sampler{w: w, csv: csv, sys: sys, gp: gp}
	for lv, dev := range [2]*dram.Device{sys.NM, sys.FM} {
		ch, bk := dev.Geometry()
		s.prevBank[lv] = make([]dram.BankCounters, ch*bk)
		s.prevChan[lv] = make([]dram.ChannelCounters, ch)
		de := &s.dram.NM
		if lv == 1 {
			de = &s.dram.FM
		}
		de.Channels, de.BanksPerChannel = ch, bk
		de.BankAccesses = make([]uint64, ch*bk)
		de.BankConflicts = make([]uint64, ch*bk)
	}
	return s
}

// dramDelta folds one device's ledger into the epoch buffers and returns
// the device-level reductions: total conflicts, bus utilization over span,
// and max-over-mean bank imbalance.
func (s *sampler) dramDelta(lv int, dev *dram.Device, span uint64) (conflicts uint64, busUtil, imbalance float64) {
	de := &s.dram.NM
	if lv == 1 {
		de = &s.dram.FM
	}
	cur := dev.BankCounters()
	prev := s.prevBank[lv]
	var total, maxAcc uint64
	for i := range cur {
		acc := cur[i].Accesses() - prev[i].Accesses()
		conf := cur[i].RowConflicts - prev[i].RowConflicts
		de.BankAccesses[i] = acc
		de.BankConflicts[i] = conf
		conflicts += conf
		total += acc
		if acc > maxAcc {
			maxAcc = acc
		}
		prev[i] = cur[i]
	}
	curCh := dev.ChannelCounters()
	prevCh := s.prevChan[lv]
	var bus uint64
	for i := range curCh {
		bus += curCh[i].BusBusyCycles - prevCh[i].BusBusyCycles
		prevCh[i] = curCh[i]
	}
	busUtil = stats.Ratio(float64(bus), float64(len(curCh))*float64(span))
	imbalance = stats.Ratio(float64(maxAcc)*float64(len(cur)), float64(total))
	return
}

// sample emits one epoch row at the current cycle and returns it for
// in-memory consumers (Config.OnEpoch).
func (s *sampler) sample() (*Sample, error) {
	now := s.sys.Eng.Now()
	cur := *s.sys.Stats
	nm, fm := s.sys.NM.Stats(), s.sys.FM.Stats()
	row := [2][2]uint64{{nm.RowHits, nm.RowMisses}, {fm.RowHits, fm.RowMisses}}

	sm := Sample{
		Epoch:      s.epoch,
		Cycle:      now,
		SpanCycles: now - s.lastCycle,

		LLCMisses:  cur.LLCMisses - s.prev.LLCMisses,
		ServicedNM: cur.ServicedNM - s.prev.ServicedNM,
		ServicedFM: cur.ServicedFM - s.prev.ServicedFM,

		DemandBytesNM:    cur.Bytes[stats.NM][stats.Demand] - s.prev.Bytes[stats.NM][stats.Demand],
		DemandBytesFM:    cur.Bytes[stats.FM][stats.Demand] - s.prev.Bytes[stats.FM][stats.Demand],
		MigrationBytesNM: cur.Bytes[stats.NM][stats.Migration] - s.prev.Bytes[stats.NM][stats.Migration],
		MigrationBytesFM: cur.Bytes[stats.FM][stats.Migration] - s.prev.Bytes[stats.FM][stats.Migration],
		MetadataBytesNM:  cur.Bytes[stats.NM][stats.Metadata] - s.prev.Bytes[stats.NM][stats.Metadata],
		MetadataBytesFM:  cur.Bytes[stats.FM][stats.Metadata] - s.prev.Bytes[stats.FM][stats.Metadata],

		SwapsIn:         cur.SwapsIn - s.prev.SwapsIn,
		SwapsOut:        cur.SwapsOut - s.prev.SwapsOut,
		Locks:           cur.Locks - s.prev.Locks,
		Unlocks:         cur.Unlocks - s.prev.Unlocks,
		Migrations:      cur.Migrations - s.prev.Migrations,
		Bypassed:        cur.BypassedAccesses - s.prev.BypassedAccesses,
		PredictorHits:   cur.PredictorHits - s.prev.PredictorHits,
		PredictorMisses: cur.PredictorMisses - s.prev.PredictorMisses,

		RowHitsNM:   row[0][0] - s.prevRow[0][0],
		RowMissesNM: row[0][1] - s.prevRow[0][1],
		RowHitsFM:   row[1][0] - s.prevRow[1][0],
		RowMissesFM: row[1][1] - s.prevRow[1][1],

		QueueNM:     s.sys.NM.QueueDepth(),
		QueueFM:     s.sys.FM.QueueDepth(),
		PeakQueueNM: s.sys.NM.TakePeakQueueDepth(),
		PeakQueueFM: s.sys.FM.TakePeakQueueDepth(),
	}
	// Ratio guards the idle epoch: zero LLC misses must sample a 0 access
	// rate, not NaN (which would poison the JSONL/CSV streams and break
	// manifest byte-determinism).
	sm.AccessRate = stats.Ratio(float64(sm.ServicedNM), float64(sm.LLCMisses))
	sm.RowConflictsNM, sm.BusUtilNM, sm.BankImbalanceNM = s.dramDelta(0, s.sys.NM, sm.SpanCycles)
	sm.RowConflictsFM, sm.BusUtilFM, sm.BankImbalanceFM = s.dramDelta(1, s.sys.FM, sm.SpanCycles)
	sm.RowHitRateNM = stats.Ratio(float64(sm.RowHitsNM), float64(sm.RowHitsNM+sm.RowMissesNM))
	sm.RowHitRateFM = stats.Ratio(float64(sm.RowHitsFM), float64(sm.RowHitsFM+sm.RowMissesFM))
	if s.gp != nil {
		sm.Gauges = s.gp.Gauges()
	}

	s.epoch++
	s.lastCycle = now
	s.prev = cur
	s.prevRow = row

	if s.w == nil {
		return &sm, nil
	}
	if s.csv {
		return &sm, s.writeCSV(&sm)
	}
	enc, err := json.Marshal(&sm)
	if err != nil {
		return nil, err
	}
	enc = append(enc, '\n')
	_, err = s.w.Write(enc)
	return &sm, err
}

// finish emits the final partial epoch, if any cycles elapsed since the
// last boundary, so the delta stream sums exactly to the run totals. A
// run in which no cycles ever elapsed (epoch==0 and Now()==0) emits
// nothing rather than a spurious all-zero row.
func (s *sampler) finish() (*Sample, error) {
	if s.sys.Eng.Now() == s.lastCycle {
		return nil, nil
	}
	return s.sample()
}

// csvField quotes a cell per RFC 4180 when it contains a comma, quote or
// newline (gauge names come from scheme code and are not constrained here).
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// csvFields indexes Sample's scalar fields in struct order: their json
// tags are the CSV header, their values the row. Gauge columns follow.
var csvFields = func() []int {
	var idx []int
	t := reflect.TypeOf(Sample{})
	for i := 0; i < t.NumField(); i++ {
		switch t.Field(i).Type.Kind() {
		case reflect.Uint64, reflect.Float64, reflect.Int:
			idx = append(idx, i)
		}
	}
	return idx
}()

func (s *sampler) writeCSV(sm *Sample) error {
	var b strings.Builder
	if !s.wroteHeader {
		for _, g := range sm.Gauges {
			s.gaugeNames = append(s.gaugeNames, g.Name)
		}
		t := reflect.TypeOf(*sm)
		for i, fi := range csvFields {
			if i > 0 {
				b.WriteByte(',')
			}
			name, _, _ := strings.Cut(t.Field(fi).Tag.Get("json"), ",")
			b.WriteString(name)
		}
		for _, n := range s.gaugeNames {
			b.WriteByte(',')
			b.WriteString(csvField("g:" + n))
		}
		b.WriteByte('\n')
		s.wroteHeader = true
	}
	v := reflect.ValueOf(sm).Elem()
	for i, fi := range csvFields {
		if i > 0 {
			b.WriteByte(',')
		}
		switch f := v.Field(fi); f.Kind() {
		case reflect.Uint64:
			b.WriteString(strconv.FormatUint(f.Uint(), 10))
		case reflect.Float64:
			b.WriteString(strconv.FormatFloat(f.Float(), 'g', -1, 64))
		case reflect.Int:
			b.WriteString(strconv.Itoa(int(f.Int())))
		}
	}
	// Gauge columns follow the header order; a scheme's gauge set is fixed,
	// but guard against drift rather than misalign columns.
	byName := make(map[string]float64, len(sm.Gauges))
	for _, g := range sm.Gauges {
		byName[g.Name] = g.Value
	}
	for _, n := range s.gaugeNames {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(byName[n], 'g', -1, 64))
	}
	b.WriteByte('\n')
	_, err := io.WriteString(s.w, b.String())
	return err
}

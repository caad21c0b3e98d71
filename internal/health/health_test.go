package health_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/core"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/telemetry"
)

const span = 10_000

// feed builds the epoch-indexed sample a detector consumes.
func feed(epoch uint64, mut func(*telemetry.Sample)) *telemetry.Sample {
	s := &telemetry.Sample{Epoch: epoch, Cycle: (epoch + 1) * span, SpanCycles: span}
	if mut != nil {
		mut(s)
	}
	return s
}

func TestSwapThrashFiresAndCloses(t *testing.T) {
	det := health.NewDetector(health.Config{})
	// Epochs 0-5 thrash (swaps double the demand), 6+ are healthy; the
	// incident must close after the window drains plus the grace epochs.
	for e := uint64(0); e < 16; e++ {
		thrash := e < 6
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 100
			s.ServicedNM = 50
			s.DemandBytesNM = 100 * memunits.SubblockSize
			if thrash {
				s.SwapsIn = 100
				s.SwapsOut = 100
			}
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 {
		t.Fatalf("want 1 incident, got %d: %+v", len(incidents), incidents)
	}
	in := incidents[0]
	if in.Kind != health.KindSwapThrash {
		t.Fatalf("kind = %q", in.Kind)
	}
	if in.FirstEpoch != 0 {
		t.Errorf("first epoch = %d, want 0", in.FirstEpoch)
	}
	if in.FirstCycle != 0 || in.LastCycle == 0 {
		t.Errorf("cycle range [%d, %d] not anchored", in.FirstCycle, in.LastCycle)
	}
	// Each thrash epoch swaps twice its demand, so the 8-epoch window
	// still exceeds demand while more than half of it is thrash epochs:
	// through epoch 8 (epochs 1-5 of 1-8). Then the incident closes, well
	// before the run's end.
	if in.LastEpoch != 8 {
		t.Errorf("last epoch = %d, want 8", in.LastEpoch)
	}
	if in.PeakSeverity <= 1 {
		t.Errorf("peak severity %.2f, want > 1 (threshold crossed)", in.PeakSeverity)
	}
	if in.Evidence.SwapBytes == 0 || in.Evidence.DemandBytes == 0 {
		t.Errorf("evidence not populated: %+v", in.Evidence)
	}
}

func TestBypassOscillationCountsCrossingsNotIdleEpochs(t *testing.T) {
	det := health.NewDetector(health.Config{})
	// Rate alternates around 0.8 every active epoch, but idle epochs
	// (zero misses, rate reported as 0) sit between them and must not
	// count as crossings.
	rates := []float64{0.9, 0, 0.9, 0, 0.9}
	for e, r := range rates {
		r := r
		det.Observe(feed(uint64(e), func(s *telemetry.Sample) {
			if r > 0 {
				s.LLCMisses = 50
				s.AccessRate = r
			}
		}))
	}
	if open := det.Open(); len(open) != 0 {
		t.Fatalf("idle gaps produced incidents: %+v", open)
	}
	// Now genuinely oscillate: four crossings within the window.
	seq := []float64{0.9, 0.7, 0.9, 0.7, 0.9}
	for i, r := range seq {
		r := r
		det.Observe(feed(uint64(5+i), func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.AccessRate = r
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindBypassOscillation {
		t.Fatalf("want one bypass-oscillation incident, got %+v", incidents)
	}
	// The window hits 4 crossings on the final epoch, so the incident spans
	// one firing evaluation whose own contribution is a single crossing.
	if incidents[0].Evidence.Crossings == 0 {
		t.Errorf("evidence crossings = 0, want the firing epoch's crossing recorded")
	}
	if incidents[0].PeakSeverity < 1 {
		t.Errorf("peak severity %.2f, want >= 1", incidents[0].PeakSeverity)
	}
}

func TestBypassToggleGaugeFires(t *testing.T) {
	det := health.NewDetector(health.Config{})
	// The governor gauge alone (cumulative toggle count) must trigger,
	// even with a steady access rate.
	toggles := []float64{2, 4, 6}
	for e, v := range toggles {
		v := v
		det.Observe(feed(uint64(e), func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.AccessRate = 0.9
			s.Gauges = []mem.Gauge{{Name: "bypass_toggles", Value: v}}
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindBypassOscillation {
		t.Fatalf("want one bypass-oscillation incident, got %+v", incidents)
	}
	// Evidence accumulates over firing epochs only: the window reaches the
	// trigger on the second epoch (cumulative 4), so the first epoch's two
	// toggles predate the incident.
	if incidents[0].Evidence.BypassToggles != 4 {
		t.Errorf("evidence toggles = %d, want 4", incidents[0].Evidence.BypassToggles)
	}
}

func TestLockChurn(t *testing.T) {
	det := health.NewDetector(health.Config{})
	for e := uint64(0); e < 4; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.Locks = 10
			s.Unlocks = 9
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindLockChurn {
		t.Fatalf("want one lock-churn incident, got %+v", incidents)
	}
	ev := incidents[0].Evidence
	if ev.Locks == 0 || ev.Unlocks == 0 {
		t.Errorf("evidence not populated: %+v", ev)
	}
}

func TestQueueSaturationUsesPeaks(t *testing.T) {
	det := health.NewDetector(health.Config{QueueCapNM: 100})
	// Instantaneous depth at the boundary is low; the per-epoch peak is
	// pinned at capacity. Only the peak should matter.
	for e := uint64(0); e < 4; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.QueueNM = 1
			s.PeakQueueNM = 95
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindQueueSaturation {
		t.Fatalf("want one queue-saturation incident, got %+v", incidents)
	}
	if incidents[0].Evidence.PeakQueueNM != 95 {
		t.Errorf("evidence peak = %d, want 95", incidents[0].Evidence.PeakQueueNM)
	}
	// Same trace with saturation detection disabled (no capacity): silent.
	det2 := health.NewDetector(health.Config{})
	for e := uint64(0); e < 4; e++ {
		det2.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.PeakQueueNM = 95
		}))
	}
	if got := det2.Finish(); len(got) != 0 {
		t.Fatalf("capacity 0 must disable the check, got %+v", got)
	}
}

func TestPredictorCollapse(t *testing.T) {
	det := health.NewDetector(health.Config{})
	// 50 predictions per epoch reach the 256-prediction floor on the
	// sixth epoch.
	for e := uint64(0); e < 8; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.PredictorHits = 10
			s.PredictorMisses = 40
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindPredictorCollapse {
		t.Fatalf("want one predictor-collapse incident, got %+v", incidents)
	}
	if sev := incidents[0].PeakSeverity; sev < 0.75 || sev > 1 {
		t.Errorf("severity %.2f, want 1-accuracy = 0.8 ballpark", sev)
	}
}

func TestRowThrashFiresOnConflictStream(t *testing.T) {
	det := health.NewDetector(health.Config{})
	// A synthetic conflict stream: nearly every FM row operation is a
	// conflict and the pressure sits on one bank (imbalance far above the
	// threshold). Epochs 6+ return to a healthy streaming mix.
	for e := uint64(0); e < 16; e++ {
		thrash := e < 6
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 300
			if thrash {
				s.RowHitsFM = 20
				s.RowMissesFM = 280
				s.RowConflictsFM = 260
				s.BankImbalanceFM = 24.0 // one hot bank out of 32
			} else {
				s.RowHitsFM = 280
				s.RowMissesFM = 20
				s.BankImbalanceFM = 1.2
			}
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindRowThrash {
		t.Fatalf("want one row-thrash incident, got %+v", incidents)
	}
	in := incidents[0]
	if in.PeakSeverity <= 1 {
		t.Errorf("peak severity %.2f, want > 1", in.PeakSeverity)
	}
	ev := in.Evidence
	if ev.RowConflicts == 0 || ev.RowOps == 0 {
		t.Errorf("evidence not populated: %+v", ev)
	}
	if ev.BankImbalance != 24.0 {
		t.Errorf("evidence imbalance = %v, want the peak 24.0", ev.BankImbalance)
	}
	// The incident must have closed after the window drained (hysteresis),
	// not extended to the run's end.
	if in.LastEpoch >= 15 {
		t.Errorf("incident never closed: last epoch %d", in.LastEpoch)
	}
}

func TestRowThrashNeedsImbalance(t *testing.T) {
	// The same conflict rate with uniform bank pressure is ordinary
	// bandwidth saturation, not row thrash: it must stay quiet.
	det := health.NewDetector(health.Config{})
	for e := uint64(0); e < 8; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 300
			s.RowHitsFM = 20
			s.RowMissesFM = 280
			s.RowConflictsFM = 260
			s.BankImbalanceFM = 1.1 // evenly spread
		}))
	}
	if got := det.Finish(); len(got) != 0 {
		t.Fatalf("uniform conflicts raised incidents: %+v", got)
	}
	// And below the activity floor nothing fires either.
	det2 := health.NewDetector(health.Config{})
	for e := uint64(0); e < 8; e++ {
		det2.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 10
			s.RowHitsFM = 2
			s.RowMissesFM = 28
			s.RowConflictsFM = 26
			s.BankImbalanceFM = 24.0
		}))
	}
	if got := det2.Finish(); len(got) != 0 {
		t.Fatalf("sub-floor conflicts raised incidents: %+v", got)
	}
}

// thrashFeed drives one deterministic synthetic mixture through a fresh
// detector and returns the JSONL encoding of its incidents.
func thrashFeed(t *testing.T) []byte {
	t.Helper()
	det := health.NewDetector(health.Config{})
	for e := uint64(0); e < 32; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 100 + e
			s.DemandBytesNM = (100 + e) * memunits.SubblockSize
			if e%11 < 4 {
				s.SwapsIn, s.SwapsOut = 200+e, 200+e
			}
			if e%2 == 0 {
				s.AccessRate = 0.9
			} else {
				s.AccessRate = 0.7
			}
			s.Locks, s.Unlocks = 8, 8
			s.PredictorHits, s.PredictorMisses = 30, 70
		}))
	}
	var buf bytes.Buffer
	if err := health.WriteJSONL(&buf, det.Finish()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

func TestIncidentsByteDeterministicAndRoundTrip(t *testing.T) {
	b1 := thrashFeed(t)
	b2 := thrashFeed(t)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("incident JSONL differs between identical feeds:\n%s\nvs\n%s", b1, b2)
	}
	// Every line round-trips: incidents decode into Incident and re-encode
	// to the same bytes; the final line is the summary.
	dec := json.NewDecoder(bytes.NewReader(b1))
	var n int
	sawSummary := false
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		var probe struct {
			Kind    string `json:"kind"`
			Summary bool   `json:"summary"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if probe.Summary {
			sawSummary = true
			n++
			continue
		}
		var in health.Incident
		if err := json.Unmarshal(raw, &in); err != nil {
			t.Fatalf("incident line %d: %v", n, err)
		}
		re, err := json.Marshal(&in)
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(raw) {
			t.Errorf("incident %d does not round-trip:\n%s\n%s", n, raw, re)
		}
		n++
	}
	if !sawSummary {
		t.Fatal("JSONL missing the summary line")
	}
	if n < 2 {
		t.Fatalf("feed produced %d lines; test is vacuous", n)
	}
}

// runConflictScenario hammers two far-memory blocks that map to the same
// NM congruence set through a real SILC-FM controller and returns the
// detector's incidents. With ways=1 and no locking the two blocks evict
// each other on every access (restore + install per miss); the paper's
// full design point keeps both resident.
func runConflictScenario(t *testing.T, feats config.SILCFeatures) []health.Incident {
	t.Helper()
	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	m.NM = config.HBM(256 << 10)
	m.FM = config.DDR3(1 << 20)
	m.SILC.Features = feats
	m.SILC.HotThreshold = 3
	m.SILC.AgingInterval = 1 << 10

	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	ctl := core.New(sys, m.SILC)

	det := health.NewDetector(health.Config{})
	tel := telemetry.Attach(&telemetry.Config{
		EpochCycles: 5_000,
		OnEpoch:     func(st telemetry.EpochState) { det.Observe(st.Sample) },
	}, sys, ctl)
	tel.Start()

	// Two FM blocks in NM set 0 for every associativity that divides
	// nmBlocks: b % (nmBlocks/ways) == 0 for both.
	nmBlocks := sys.NMCap / memunits.BlockSize
	blocks := []uint64{nmBlocks, 2 * nmBlocks}
	deadline := uint64(0)
	for i := 0; i < 3000; i++ {
		b := blocks[i%2]
		sub := uint64(i%int(memunits.SubblocksPerBlock)) * memunits.SubblockSize
		ctl.Handle(&mem.Access{
			PC:    1,
			PAddr: b*memunits.BlockSize + sub,
			Start: eng.Now(),
		})
		deadline += 100
		eng.RunUntil(deadline)
	}
	if err := tel.Finish(); err != nil {
		t.Fatalf("telemetry finish: %v", err)
	}
	return det.Finish()
}

func hasKind(incidents []health.Incident, kind string) bool {
	for _, in := range incidents {
		if in.Kind == kind {
			return true
		}
	}
	return false
}

// TestConflictThrashDetectedOnDirectMappedOnly is the acceptance scenario:
// the same conflict pattern raises swap-thrash on a direct-mapped,
// featureless organization and stays quiet on the paper's full design
// point (associativity + locking + bypass absorb the conflict).
func TestConflictThrashDetectedOnDirectMappedOnly(t *testing.T) {
	direct := runConflictScenario(t, config.SILCFeatures{Ways: 1})
	if !hasKind(direct, health.KindSwapThrash) {
		t.Errorf("direct-mapped conflict run raised no swap-thrash: %+v", direct)
	}
	full := runConflictScenario(t, config.SILCFeatures{
		Locking: true, Ways: 4, Bypass: true, Predictor: true, BitVecHistory: true,
	})
	if hasKind(full, health.KindSwapThrash) {
		t.Errorf("full SILC-FM design point thrashed on the conflict pattern: %+v", full)
	}

	// Determinism of the real-simulation path: identical runs, identical
	// incident bytes.
	again := runConflictScenario(t, config.SILCFeatures{Ways: 1})
	b1, _ := json.Marshal(direct)
	b2, _ := json.Marshal(again)
	if !bytes.Equal(b1, b2) {
		t.Errorf("incidents differ between identical runs:\n%s\nvs\n%s", b1, b2)
	}
}

func TestDiffOpen(t *testing.T) {
	inc := func(kind string, firstEpoch uint64) health.Incident {
		return health.Incident{Kind: kind, FirstEpoch: firstEpoch}
	}
	kinds := func(ins []health.Incident) []string {
		var out []string
		for _, in := range ins {
			out = append(out, in.Kind)
		}
		return out
	}
	cases := []struct {
		name                string
		prev, cur           []health.Incident
		wantOpen, wantClose []string
	}{
		{"both empty", nil, nil, nil, nil},
		{"opens", nil, []health.Incident{inc(health.KindSwapThrash, 3)}, []string{health.KindSwapThrash}, nil},
		{"closes", []health.Incident{inc(health.KindSwapThrash, 3)}, nil, nil, []string{health.KindSwapThrash}},
		{"steady", []health.Incident{inc(health.KindSwapThrash, 3)}, []health.Incident{inc(health.KindSwapThrash, 3)}, nil, nil},
		{
			// Same kind, new FirstEpoch: the old incident closed and a new
			// one opened between the two observations.
			"reopen",
			[]health.Incident{inc(health.KindLockChurn, 2)},
			[]health.Incident{inc(health.KindLockChurn, 9)},
			[]string{health.KindLockChurn}, []string{health.KindLockChurn},
		},
		{
			"mixed",
			[]health.Incident{inc(health.KindSwapThrash, 1), inc(health.KindLockChurn, 2)},
			[]health.Incident{inc(health.KindLockChurn, 2), inc(health.KindQueueSaturation, 5)},
			[]string{health.KindQueueSaturation}, []string{health.KindSwapThrash},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opened, closed := health.DiffOpen(tc.prev, tc.cur)
			if got := kinds(opened); !reflect.DeepEqual(got, tc.wantOpen) {
				t.Errorf("opened = %v, want %v", got, tc.wantOpen)
			}
			if got := kinds(closed); !reflect.DeepEqual(got, tc.wantClose) {
				t.Errorf("closed = %v, want %v", got, tc.wantClose)
			}
		})
	}
}

// diffOpenByMap is DiffOpen as it was first written, indexing both
// snapshots by kind in maps; the scan that replaced it must agree with it.
func diffOpenByMap(prev, cur []health.Incident) (opened, closed []health.Incident) {
	prevByKind := make(map[string]health.Incident, len(prev))
	for _, in := range prev {
		prevByKind[in.Kind] = in
	}
	curByKind := make(map[string]health.Incident, len(cur))
	for _, in := range cur {
		curByKind[in.Kind] = in
		if p, ok := prevByKind[in.Kind]; !ok {
			opened = append(opened, in)
		} else if p.FirstEpoch != in.FirstEpoch {
			closed = append(closed, p)
			opened = append(opened, in)
		}
	}
	for _, in := range prev {
		if _, ok := curByKind[in.Kind]; !ok {
			closed = append(closed, in)
		}
	}
	return opened, closed
}

// TestDiffOpenMatchesMapReference: over random pairs of detector-ordered
// open sets (at most one incident per kind, in Kinds order), including a
// kind that reopens in the same epoch with a new first epoch, DiffOpen
// returns exactly the map reference's opens and closes in the same order.
func TestDiffOpenMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := health.Kinds()
	open := func(epochs []uint64) []health.Incident {
		var out []health.Incident
		for k, e := range epochs {
			if e != 0 {
				out = append(out, health.Incident{Kind: kinds[k], FirstEpoch: e, LastEpoch: e + uint64(k)})
			}
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		prevEpochs := make([]uint64, len(kinds))
		curEpochs := make([]uint64, len(kinds))
		for k := range kinds {
			if rng.Intn(2) == 0 {
				prevEpochs[k] = 1 + uint64(rng.Intn(3))
			}
			switch rng.Intn(3) {
			case 0: // still open, or never opened
				curEpochs[k] = prevEpochs[k]
			case 1: // reopened in the same epoch, or newly opened
				curEpochs[k] = 4 + uint64(rng.Intn(3))
			}
		}
		prev, cur := open(prevEpochs), open(curEpochs)
		opened, closed := health.DiffOpen(prev, cur)
		wantOpened, wantClosed := diffOpenByMap(prev, cur)
		if !reflect.DeepEqual(opened, wantOpened) || !reflect.DeepEqual(closed, wantClosed) {
			t.Fatalf("DiffOpen(%v, %v) = %v, %v; reference %v, %v",
				prev, cur, opened, closed, wantOpened, wantClosed)
		}
	}
}

// TestDiffOpenUnchangedAllocatesNothing: an epoch whose open set equals
// the previous one, as most epochs with an open incident are, allocates
// nothing.
func TestDiffOpenUnchangedAllocatesNothing(t *testing.T) {
	kinds := health.Kinds()
	for _, n := range []int{1, 2, len(kinds)} {
		var prev []health.Incident
		for k := 0; k < n; k++ {
			prev = append(prev, health.Incident{Kind: kinds[k], FirstEpoch: uint64(k + 1)})
		}
		cur := append([]health.Incident(nil), prev...)
		if avg := testing.AllocsPerRun(100, func() { health.DiffOpen(prev, cur) }); avg != 0 {
			t.Errorf("%d unchanged open incidents: %.1f allocations per diff, want 0", n, avg)
		}
	}
}

// TestRuleBoundaries pins every rule's fixed thresholds: a window exactly
// at a rule's inclusive bound fires, one unit short stays quiet (for a
// strict bound, exactly at it stays quiet and one unit past fires), and
// each bound is the number Rules() prints. Each sample repeats every epoch
// unless the case varies it by epoch; windows hold 8 epochs.
func TestRuleBoundaries(t *testing.T) {
	type mut func(e uint64, s *telemetry.Sample)
	// every sets a per-epoch sample; lastDiffers swaps in other for the
	// final epoch, landing one unit short of a window total.
	every := func(f func(s *telemetry.Sample)) mut { return func(_ uint64, s *telemetry.Sample) { f(s) } }
	lastDiffers := func(epochs uint64, f, other func(s *telemetry.Sample)) mut {
		return func(e uint64, s *telemetry.Sample) {
			if e == epochs-1 {
				other(s)
			} else {
				f(s)
			}
		}
	}
	// at sets f only at the listed epochs.
	at := func(f func(s *telemetry.Sample), epochs ...uint64) mut {
		return func(e uint64, s *telemetry.Sample) {
			for _, x := range epochs {
				if e == x {
					f(s)
				}
			}
		}
	}
	swap := func(misses, demandBytes uint64) func(s *telemetry.Sample) {
		return func(s *telemetry.Sample) {
			s.LLCMisses = misses
			s.SwapsIn = 2 // 128 swapped bytes per epoch
			s.DemandBytesNM = demandBytes
		}
	}
	rate := func(hi, lo float64) mut {
		return func(e uint64, s *telemetry.Sample) {
			s.LLCMisses = 10
			s.AccessRate = hi
			if e%2 == 1 {
				s.AccessRate = lo
			}
		}
	}
	locks := func(l, u uint64) func(s *telemetry.Sample) {
		return func(s *telemetry.Sample) { s.Locks, s.Unlocks = l, u }
	}
	queue := func(peak int) func(s *telemetry.Sample) {
		return func(s *telemetry.Sample) { s.PeakQueueNM = peak }
	}
	pred := func(hits, misses uint64) func(s *telemetry.Sample) {
		return func(s *telemetry.Sample) { s.PredictorHits, s.PredictorMisses = hits, misses }
	}
	rows := func(hits, misses, conflicts uint64, imbalance float64) func(s *telemetry.Sample) {
		return func(s *telemetry.Sample) {
			s.RowHitsFM, s.RowMissesFM, s.RowConflictsFM = hits, misses, conflicts
			s.BankImbalanceFM = imbalance
		}
	}
	cases := []struct {
		name   string
		kind   string
		epochs uint64
		fire   mut
		quiet  mut
		text   []string // substrings of the rule's printed threshold
	}{
		// 8 epochs x 8 misses reach the 64-miss floor; 63 do not.
		{"swap-thrash misses", health.KindSwapThrash, 8,
			every(swap(8, 64)), lastDiffers(8, swap(8, 64), swap(7, 64)),
			[]string{">= 64 LLC misses", "over 8 epochs"}},
		// Swapped bytes must exceed 1.00 x demand: 1024 > 1023 fires,
		// 1024 = 1024 does not.
		{"swap-thrash ratio", health.KindSwapThrash, 8,
			lastDiffers(8, swap(8, 128), swap(8, 127)), every(swap(8, 128)),
			[]string{"> 1.00 x demand bytes"}},
		// Rates alternating across 0.80 (inclusive above; the low rate is
		// the next float below it) cross once per epoch after the first: 4
		// crossings by epoch 4.
		{"bypass-oscillation target", health.KindBypassOscillation, 5,
			rate(0.8, math.Nextafter(0.8, 0)), rate(0.81, 0.8),
			[]string{"crossings of 0.80", ">= 4 over 8 epochs"}},
		{"bypass-oscillation crossings", health.KindBypassOscillation, 5,
			rate(0.9, 0.7), func(e uint64, s *telemetry.Sample) {
				rate(0.9, 0.7)(min(e, 3), s) // the fifth epoch repeats the fourth
			},
			[]string{">= 4 over 8 epochs"}},
		// 8 epochs x 2 reach 16; one unlock short is 15.
		{"lock-churn", health.KindLockChurn, 8,
			every(locks(2, 2)), lastDiffers(8, locks(2, 2), locks(2, 1)),
			[]string{">= 16 over 8 epochs"}},
		// The window spans 8 epochs: epochs 0 and 7 share one, 0 and 8 do
		// not.
		{"lock-churn window", health.KindLockChurn, 9,
			at(locks(8, 8), 0, 7), at(locks(8, 8), 0, 8),
			[]string{"over 8 epochs"}},
		// Capacity 100: a peak of 75 is saturated, 74 is not.
		{"queue-saturation depth", health.KindQueueSaturation, 8,
			at(queue(75), 0, 2, 4, 6), at(queue(74), 0, 2, 4, 6),
			[]string{">= 75% of device capacity"}},
		// 4 saturated epochs of the window fire; 3 do not.
		{"queue-saturation epochs", health.KindQueueSaturation, 8,
			at(queue(100), 0, 2, 4, 6), at(queue(100), 0, 2, 4),
			[]string{"in >= 4 of 8 epochs"}},
		// 8 epochs x 32 predictions reach 256 at 15/32 accuracy; 255 do
		// not.
		{"predictor-collapse samples", health.KindPredictorCollapse, 8,
			every(pred(15, 17)), lastDiffers(8, pred(15, 17), pred(15, 16)),
			[]string{">= 256 predictions over 8 epochs"}},
		// Accuracy must fall below 0.50: 127/256 fires, 128/256 does not.
		{"predictor-collapse floor", health.KindPredictorCollapse, 8,
			lastDiffers(8, pred(16, 16), pred(15, 17)), every(pred(16, 16)),
			[]string{"accuracy < 0.50"}},
		// 8 epochs x 64 row ops reach 512 at 33/64 conflicts; 511 do not.
		{"row-thrash ops", health.KindRowThrash, 8,
			every(rows(31, 33, 33, 4)), lastDiffers(8, rows(31, 33, 33, 4), rows(30, 33, 33, 4)),
			[]string{">= 512 row ops over 8 epochs"}},
		// Conflicts must exceed 0.50 of row ops: 257/512 fires, 256 not.
		{"row-thrash ratio", health.KindRowThrash, 8,
			lastDiffers(8, rows(32, 32, 32, 4), rows(31, 33, 33, 4)), every(rows(32, 32, 32, 4)),
			[]string{"> 0.50 x row ops"}},
		// The peak bank imbalance must reach 4.0.
		{"row-thrash imbalance", health.KindRowThrash, 8,
			every(rows(31, 33, 33, 4)), every(rows(31, 33, 33, 3.99)),
			[]string{"peak bank imbalance >= 4.0"}},
	}
	run := func(m mut, epochs uint64) []health.Incident {
		det := health.NewDetector(health.Config{QueueCapNM: 100})
		for e := uint64(0); e < epochs; e++ {
			det.Observe(feed(e, func(s *telemetry.Sample) { m(e, s) }))
		}
		return det.Finish()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.fire, tc.epochs); !hasKind(got, tc.kind) {
				t.Errorf("window at the bound raised no %s: %+v", tc.kind, got)
			}
			if got := run(tc.quiet, tc.epochs); hasKind(got, tc.kind) {
				t.Errorf("window one unit short raised %s: %+v", tc.kind, got)
			}
			info, ok := health.Info(tc.kind)
			if !ok {
				t.Fatalf("no rule metadata for %s", tc.kind)
			}
			for _, want := range tc.text {
				if !strings.Contains(info.Threshold, want) {
					t.Errorf("threshold %q does not print %q", info.Threshold, want)
				}
			}
		})
	}
}

// TestIncidentClosesAfterTwoQuietEpochs pins the close hysteresis: a
// one-epoch quiet gap extends the open incident, a two-epoch gap closes it
// and the next firing opens a second one. A lock-churn burst in one epoch
// keeps the 8-epoch window firing through epoch 7 of it.
func TestIncidentClosesAfterTwoQuietEpochs(t *testing.T) {
	for _, tc := range []struct {
		second uint64 // epoch of the second burst
		want   int
	}{
		{9, 1},  // quiet at 8 only
		{10, 2}, // quiet at 8 and 9: closed
	} {
		det := health.NewDetector(health.Config{})
		for e := uint64(0); e <= tc.second+8; e++ {
			det.Observe(feed(e, func(s *telemetry.Sample) {
				if e == 0 || e == tc.second {
					s.Locks, s.Unlocks = 16, 16
				}
			}))
		}
		if got := det.Finish(); len(got) != tc.want {
			t.Errorf("bursts at 0 and %d: %d incidents, want %d: %+v", tc.second, len(got), tc.want, got)
		}
	}
}

// TestOpenIsFreshOrderedAndNeverChanged pins the contract the recorders and
// the live hub rely on when they keep Status.Open: every Open result is a
// fresh slice (nil when nothing is open) listing the open incidents in
// detector order, and later epochs never change one already returned.
func TestOpenIsFreshOrderedAndNeverChanged(t *testing.T) {
	det := health.NewDetector(health.Config{QueueCapNM: 100})
	kinds := health.Kinds()
	var kept, copies [][]health.Incident
	for e := uint64(0); e < 40; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			if e >= 2 && e < 20 { // lock churn, opening first
				s.Locks, s.Unlocks = 16, 16
			}
			if e >= 5 && e < 30 { // then queue saturation
				s.PeakQueueNM = 90
			}
			if e >= 10 && e < 25 { // then swap thrash, first in detector order
				s.LLCMisses = 100
				s.DemandBytesNM = 100 * memunits.SubblockSize
				s.SwapsIn, s.SwapsOut = 100, 100
			}
		}))
		open := det.Open()
		if len(open) == 0 && open != nil {
			t.Fatalf("epoch %d: empty open set is non-nil", e)
		}
		next := 0
		for _, in := range open {
			for next < len(kinds) && kinds[next] != in.Kind {
				next++
			}
			if next == len(kinds) {
				t.Fatalf("epoch %d: open set %+v is not in detector order %v", e, open, kinds)
			}
			next++
		}
		for _, prev := range kept {
			if len(open) > 0 && len(prev) > 0 && &open[0] == &prev[0] {
				t.Fatalf("epoch %d: Open reused an earlier result's array", e)
			}
		}
		kept = append(kept, open)
		copies = append(copies, append([]health.Incident(nil), open...))
	}
	if n := len(kept[15]); n != 3 {
		t.Fatalf("epoch 15 holds %d open incidents, want all 3 rules firing", n)
	}
	for e := range kept {
		if !reflect.DeepEqual(kept[e], copies[e]) {
			t.Errorf("epoch %d's open set changed after it was returned:\n%+v\nwas\n%+v", e, kept[e], copies[e])
		}
	}
}

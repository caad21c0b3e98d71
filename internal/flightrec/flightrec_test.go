package flightrec_test

import (
	"bytes"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
)

// The recorder's fixed bounds, as the tests below exercise them.
const (
	historyEpochs   = 16
	tailEpochs      = 4
	maxBundleEvents = 2048
	topK            = 8
	maxBundles      = 8
)

// newRec builds a recorder over a bare system (engine only — the synthetic
// tests feed Observe/DemandComplete directly, no simulation runs).
func newRec(t *testing.T) *flightrec.Recorder {
	t.Helper()
	r := flightrec.New(flightrec.Config{}, &mem.System{Eng: sim.NewEngine()}, "test-fp", "test/run")
	if r == nil {
		t.Fatal("New returned nil for an enabled config")
	}
	return r
}

// epochState synthesizes one epoch boundary. Epoch e spans cycles
// [e*1000, (e+1)*1000), so epoch 0's window starts at cycle 0 and ring
// events stamped at cycle 0 fall inside any pre-window that reaches it.
func epochState(epoch uint64) telemetry.EpochState {
	return telemetry.EpochState{
		Sample: &telemetry.Sample{
			Epoch:      epoch,
			Cycle:      (epoch + 1) * 1000,
			SpanCycles: 1000,
			LLCMisses:  100 + epoch,
			Gauges:     []mem.Gauge{{Name: "locked_frames", Value: float64(epoch)}},
		},
	}
}

// incident builds a minimal open-incident record for kind at epoch e.
func incident(kind string, e uint64) health.Incident {
	return health.Incident{Kind: kind, FirstEpoch: e, LastEpoch: e, PeakSeverity: 1.5}
}

// feed observes epochs [from, to) with no incident activity.
func feed(r *flightrec.Recorder, from, to uint64) {
	for e := from; e < to; e++ {
		r.Observe(epochState(e), health.Status{})
	}
}

// trigger opens kind at epoch e (the incident appears in Opened and Open).
func trigger(r *flightrec.Recorder, kind string, e uint64) {
	in := incident(kind, e)
	r.Observe(epochState(e), health.Status{
		Open:   []health.Incident{in},
		Opened: []health.Incident{in},
	})
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *flightrec.Recorder
	r.Swap(mem.Location{}, mem.Location{})
	r.Lock(1, 2, true)
	r.Unlock(1, 2)
	r.DemandComplete(&mem.Access{}, stats.PathBypass, 10)
	r.Observe(epochState(0), health.Status{})
	if b := r.Finish(); b != nil {
		t.Errorf("nil recorder Finish = %v, want nil", b)
	}
	if b := r.Bundles(); b != nil {
		t.Errorf("nil recorder Bundles = %v, want nil", b)
	}
	if d := r.DroppedCaptures(); d != 0 {
		t.Errorf("nil recorder DroppedCaptures = %d, want 0", d)
	}
}

func TestDisabledConfigReturnsNil(t *testing.T) {
	r := flightrec.New(flightrec.Config{Disabled: true}, &mem.System{Eng: sim.NewEngine()}, "fp", "run")
	if r != nil {
		t.Fatal("New with Disabled returned a live recorder")
	}
}

// TestCaptureLifecycle walks the full state machine: history fills, an
// incident opens (freezing the ring as the pre-window), stays open, closes,
// and the tail countdown finalizes an unforced bundle.
func TestCaptureLifecycle(t *testing.T) {
	r := newRec(t)
	feed(r, 0, 17) // ring now holds epochs 1-16
	trigger(r, health.KindSwapThrash, 17)
	// Open through epoch 18, closed at 19, quiet 19-22 -> finalize at 22.
	open := incident(health.KindSwapThrash, 17)
	r.Observe(epochState(18), health.Status{Open: []health.Incident{open}})
	closed := open
	closed.LastEpoch = 19
	r.Observe(epochState(19), health.Status{Closed: []health.Incident{closed}})
	feed(r, 20, 22)
	if n := len(r.Bundles()); n != 0 {
		t.Fatalf("finalized after %d quiet epochs, want %d", tailEpochs-1, tailEpochs)
	}
	r.Observe(epochState(22), health.Status{})

	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1 (tail should have finalized)", len(bundles))
	}
	b := bundles[0]
	if b.Trigger != health.KindSwapThrash || b.Forced {
		t.Errorf("trigger=%q forced=%v, want %q unforced", b.Trigger, b.Forced, health.KindSwapThrash)
	}
	// Ring held epochs 2-17 at trigger time (capacity 16, trigger included).
	if b.PreEpochs != historyEpochs-1 || b.FirstEpoch != 2 || b.LastEpoch != 22 {
		t.Errorf("window pre=%d epochs %d-%d, want pre=15 epochs 2-22", b.PreEpochs, b.FirstEpoch, b.LastEpoch)
	}
	if b.FirstCycle != 2000 || b.LastCycle != 23000 {
		t.Errorf("cycles %d-%d, want 2000-23000", b.FirstCycle, b.LastCycle)
	}
	if len(b.Epochs) != 21 {
		t.Errorf("captured %d epochs, want 21 (16 ring + 18-22)", len(b.Epochs))
	}
	if b.Epochs[b.PreEpochs].Sample.Epoch != 17 {
		t.Errorf("trigger record is epoch %d, want 17", b.Epochs[b.PreEpochs].Sample.Epoch)
	}
	if len(b.Incidents) != 1 || b.Incidents[0].LastEpoch != 19 {
		t.Errorf("incidents = %+v, want the one closed record", b.Incidents)
	}
	if len(b.OpenKinds) != 0 {
		t.Errorf("unforced bundle has open kinds %v", b.OpenKinds)
	}
	if len(b.Rules) != 1 || b.Rules[0].Kind != health.KindSwapThrash || b.Rules[0].OpenEpochs != 2 {
		t.Errorf("rule traces = %+v, want swap-thrash open at 2 boundaries", b.Rules)
	}
	// Finish with nothing in flight adds no forced bundle.
	if out := r.Finish(); len(out) != 1 {
		t.Errorf("Finish returned %d bundles, want 1", len(out))
	}
}

// TestTriggerAtFirstEpochHasNoPreHistory is the tightest boundary: an
// incident opening at the run's first epoch finds an empty ring, so the
// trigger epoch starts the window and there is no pre-history.
func TestTriggerAtFirstEpochHasNoPreHistory(t *testing.T) {
	r := newRec(t)
	trigger(r, health.KindLockChurn, 0)
	feed(r, 1, 1+tailEpochs)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.PreEpochs != 0 || b.FirstEpoch != 0 {
		t.Errorf("pre=%d first=%d, want pre=0 first=0", b.PreEpochs, b.FirstEpoch)
	}
	if len(b.Epochs) != 1+tailEpochs || b.Epochs[0].Sample.Epoch != 0 {
		t.Errorf("epochs = %d starting at %d, want %d starting at 0", len(b.Epochs), b.Epochs[0].Sample.Epoch, 1+tailEpochs)
	}
}

// TestPreWindowShorterThanHistory: an incident in the run's first epochs
// must capture only what exists, not a full ring of stale slots.
func TestPreWindowShorterThanHistory(t *testing.T) {
	r := newRec(t)
	feed(r, 0, 2)
	trigger(r, health.KindQueueSaturation, 2)
	feed(r, 3, 3+tailEpochs)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.PreEpochs != 2 || b.FirstEpoch != 0 || len(b.Epochs) != 3+tailEpochs {
		t.Errorf("pre=%d first=%d n=%d, want pre=2 first=0 n=%d", b.PreEpochs, b.FirstEpoch, len(b.Epochs), 3+tailEpochs)
	}
	for i := range b.Epochs {
		if b.Epochs[i].Sample.Epoch != uint64(i) {
			t.Fatalf("epoch record %d holds epoch %d, want oldest-first from 0", i, b.Epochs[i].Sample.Epoch)
		}
	}
}

// TestRingExactWrap fills the ring an exact multiple of its capacity before
// triggering, so head has wrapped back to zero: the oldest-first walk must
// still produce strictly increasing epochs.
func TestRingExactWrap(t *testing.T) {
	r := newRec(t)
	feed(r, 0, 2*historyEpochs) // two full revolutions; head back at slot 0
	trigger(r, health.KindSwapThrash, 2*historyEpochs)
	feed(r, 2*historyEpochs+1, 2*historyEpochs+1+tailEpochs)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	first := uint64(historyEpochs + 1)
	if b.PreEpochs != historyEpochs-1 || b.FirstEpoch != first {
		t.Errorf("pre=%d first=%d, want pre=%d first=%d", b.PreEpochs, b.FirstEpoch, historyEpochs-1, first)
	}
	want := first
	for i := range b.Epochs {
		if b.Epochs[i].Sample.Epoch != want {
			t.Fatalf("epoch record %d holds epoch %d, want %d", i, b.Epochs[i].Sample.Epoch, want)
		}
		want++
	}
	// Each record owns its gauges: ring reuse after capture must not reach
	// into an emitted bundle.
	feed(r, want, want+2*historyEpochs)
	if g := b.Epochs[0].Sample.Gauges[0].Value; g != float64(first) {
		t.Errorf("bundle gauge mutated to %v after ring reuse, want %d", g, first)
	}
}

// TestForcedFlushAtFinish: a capture still in flight at end of run becomes
// a forced bundle naming the still-open kinds in detector order.
func TestForcedFlushAtFinish(t *testing.T) {
	r := newRec(t)
	feed(r, 0, 3)
	trigger(r, health.KindSwapThrash, 3)
	open := []health.Incident{incident(health.KindSwapThrash, 3), incident(health.KindQueueSaturation, 4)}
	r.Observe(epochState(4), health.Status{Open: open, Opened: open[1:]})
	out := r.Finish()
	if len(out) != 1 {
		t.Fatalf("Finish returned %d bundles, want 1 forced", len(out))
	}
	b := out[0]
	if !b.Forced || b.Trigger != health.KindSwapThrash {
		t.Errorf("forced=%v trigger=%q, want forced swap-thrash", b.Forced, b.Trigger)
	}
	wantKinds := []string{health.KindSwapThrash, health.KindQueueSaturation}
	if len(b.OpenKinds) != 2 || b.OpenKinds[0] != wantKinds[0] || b.OpenKinds[1] != wantKinds[1] {
		t.Errorf("open kinds = %v, want %v (detector order)", b.OpenKinds, wantKinds)
	}
}

// TestMaxBundlesDropsLaterCaptures: opens past the bundle cap are refused
// and counted, never silently captured.
func TestMaxBundlesDropsLaterCaptures(t *testing.T) {
	r := newRec(t)
	var e uint64
	for i := 0; i <= maxBundles; i++ {
		trigger(r, health.KindSwapThrash, e)
		feed(r, e+1, e+1+tailEpochs) // tail -> bundle i, or nothing past the cap
		e += 1 + tailEpochs
	}
	if n := len(r.Bundles()); n != maxBundles {
		t.Errorf("got %d bundles, want %d", n, maxBundles)
	}
	if d := r.DroppedCaptures(); d != 1 {
		t.Errorf("DroppedCaptures = %d, want 1", d)
	}
}

// TestEventExcerptBounds: the pre-trigger excerpt keeps the newest events
// when the ring holds more than the bundle's event bound, and
// during-capture overflow is counted rather than grown.
func TestEventExcerptBounds(t *testing.T) {
	r := newRec(t)
	const pre = maxBundleEvents + 6
	for i := uint64(0); i < pre; i++ {
		r.Lock(i, 100+i, false) // engine never advances: all at cycle 0
	}
	trigger(r, health.KindLockChurn, 0) // epoch 0 spans cycle 0: all in window
	for i := uint64(0); i < 3; i++ {
		r.Unlock(i, 100+i) // during capture, but the excerpt is already full
	}
	feed(r, 1, 1+tailEpochs)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if len(b.Events) != maxBundleEvents {
		t.Fatalf("excerpt holds %d events, want %d", len(b.Events), maxBundleEvents)
	}
	// Newest pre-trigger events kept: locks of frames 6 onward.
	for i, ev := range b.Events {
		if ev.Kind != "lock" || ev.Src != uint64(6+i) {
			t.Fatalf("event %d = %+v, want lock frame %d", i, ev, 6+i)
		}
	}
	if b.EventsDropped != 9 { // 6 older pre-trigger + 3 during-capture
		t.Errorf("EventsDropped = %d, want 9", b.EventsDropped)
	}
}

// TestPreWindowKeepsInWindowEventsBehindOlderOnes: when the event ring also
// holds events older than the pre-window, only the in-window excess over
// maxBundleEvents counts as dropped; the older events must not push the
// in-window ones out.
func TestPreWindowKeepsInWindowEventsBehindOlderOnes(t *testing.T) {
	eng := sim.NewEngine()
	r := flightrec.New(flightrec.Config{}, &mem.System{Eng: eng}, "test-fp", "test/run")
	swaps := func(at sim.Cycle, n int) {
		eng.At(at, func() {
			for i := 0; i < n; i++ {
				r.Swap(mem.Location{Level: stats.NM, DevAddr: uint64(i)}, mem.Location{Level: stats.FM, DevAddr: uint64(i)})
			}
		})
		eng.Run()
	}
	swaps(10, 4096) // fills the ring, long before the pre-window
	feed(r, 0, 20)
	swaps(20_500, 100) // inside epoch 20, the trigger epoch
	trigger(r, health.KindSwapThrash, 20)
	b := r.Finish()[0]
	if b.FirstCycle != 5000 {
		t.Fatalf("FirstCycle = %d, want 5000 (epochs 5..20 in the window)", b.FirstCycle)
	}
	if len(b.Events) != 100 || b.EventsDropped != 0 {
		t.Fatalf("bundle holds %d events with %d dropped, want all 100 in-window swaps and 0 dropped",
			len(b.Events), b.EventsDropped)
	}
	for i, ev := range b.Events {
		if ev.Kind != "swap" || ev.Cycle != 20_500 || ev.Src != uint64(i) {
			t.Fatalf("event %d = %+v, want swap of subblock %d at cycle 20500", i, ev, i)
		}
	}
}

// TestOffenderTopK: per-epoch top-K selection is count desc then block asc,
// and the table resets between epochs.
func TestOffenderTopK(t *testing.T) {
	r := newRec(t)
	hit := func(block, times uint64) {
		a := &mem.Access{PAddr: block << 11}
		for i := uint64(0); i < times; i++ {
			r.DemandComplete(a, stats.PathNMHit, 100)
		}
	}
	hit(7, 5)
	hit(3, 5) // ties block 7 on count; lower block ranks first
	hit(9, 9)
	for b := uint64(15); b >= 10; b-- {
		hit(b, 2) // six-way tie at the cutoff: block 15 ranks last, out
	}
	hit(1, 1) // squeezed out of the top K
	trigger(r, health.KindSwapThrash, 0)
	hit(42, 2) // next epoch's table starts clean
	feed(r, 1, 1+tailEpochs)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	ep0 := b.Epochs[0]
	want := []flightrec.Offender{
		{Block: 9, Demands: 9, LatCycles: 900},
		{Block: 3, Demands: 5, LatCycles: 500},
		{Block: 7, Demands: 5, LatCycles: 500},
	}
	for blk := uint64(10); blk <= 14; blk++ {
		want = append(want, flightrec.Offender{Block: blk, Demands: 2, LatCycles: 200})
	}
	if len(want) != topK || len(ep0.Offenders) != len(want) {
		t.Fatalf("epoch 0 offenders = %+v, want %+v", ep0.Offenders, want)
	}
	for i := range want {
		if ep0.Offenders[i] != want[i] {
			t.Errorf("epoch 0 offender %d = %+v, want %+v", i, ep0.Offenders[i], want[i])
		}
	}
	if ep0.OffenderBlocks != 10 {
		t.Errorf("epoch 0 distinct blocks = %d, want 10", ep0.OffenderBlocks)
	}
	ep1 := b.Epochs[1]
	if len(ep1.Offenders) != 1 || ep1.Offenders[0].Block != 42 {
		t.Errorf("epoch 1 offenders = %+v, want only block 42 (table not cleared?)", ep1.Offenders)
	}
	// Window-wide aggregation merges both epochs.
	if len(b.Offenders) == 0 || b.Offenders[0].Block != 9 {
		t.Errorf("window offenders = %+v, want block 9 first", b.Offenders)
	}
}

// TestSteadyStateObserveDoesNotAllocate: with no incident in flight, the
// per-epoch and per-event paths must stay allocation-free once the gauge
// buffers have warmed up — the recorder is always on, so its steady state
// rides the simulation inner loop.
func TestSteadyStateObserveDoesNotAllocate(t *testing.T) {
	r := newRec(t)
	st := epochState(0)
	feed(r, 0, 32) // warm the ring through a full revolution
	epoch := uint64(32)
	avg := testing.AllocsPerRun(200, func() {
		st.Sample.Epoch = epoch
		st.Sample.Cycle = (epoch + 1) * 1000
		st.Sample.Attr.Count[stats.PathNMHit] += 10
		r.Observe(st, health.Status{})
		epoch++
	})
	if avg != 0 {
		t.Errorf("steady-state Observe allocates %.1f objects/epoch, want 0", avg)
	}
	a := &mem.Access{PAddr: 123 << 11}
	avg = testing.AllocsPerRun(200, func() {
		r.DemandComplete(a, stats.PathBypass, 50)
		r.Swap(mem.Location{Level: stats.NM, DevAddr: 1}, mem.Location{Level: stats.FM, DevAddr: 2})
	})
	if avg != 0 {
		t.Errorf("steady-state event feed allocates %.1f objects/event, want 0", avg)
	}
}

// TestSyntheticBundleDeterminism: two recorders fed the same sequence emit
// byte-identical bundles, and the encoding round-trips through Decode.
func TestSyntheticBundleDeterminism(t *testing.T) {
	mk := func() *flightrec.Bundle {
		r := newRec(t)
		for i := uint64(0); i < 6; i++ {
			r.Lock(i, 200+i, i%2 == 0)
			r.DemandComplete(&mem.Access{PAddr: (300 + i) << 11}, stats.PathFM, 80+i)
		}
		feed(r, 0, 3)
		trigger(r, health.KindSwapThrash, 3)
		r.Observe(epochState(4), health.Status{})
		r.Observe(epochState(5), health.Status{})
		out := r.Finish()
		if len(out) != 1 {
			t.Fatalf("got %d bundles, want 1", len(out))
		}
		return &out[0]
	}
	var a, b bytes.Buffer
	if err := mk().Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical feeds produced different bundle bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
	dec, err := flightrec.Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Trigger != health.KindSwapThrash || len(dec.Epochs) != 6 {
		t.Errorf("round-trip = trigger %q, %d epochs; want swap-thrash, 6", dec.Trigger, len(dec.Epochs))
	}
	if _, err := flightrec.Decode(strings.NewReader(`{"schema":"bogus-v9"}`)); err == nil {
		t.Error("Decode accepted an unknown schema")
	}
}

// thrashSpec is the small SILC-FM configuration the CI postmortem stage
// uses: an 8 MB near memory under a milc footprint slice that reliably
// opens swap-thrash (at epoch 0) and queue-saturation incidents.
func thrashSpec() harness.Spec {
	m := config.Default()
	m.Scheme = config.SchemeSILCFM
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	return harness.Spec{
		Machine:      m,
		Workload:     "milc",
		InstrPerCore: 100_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
	}
}

// TestHarnessBundleByteDeterminism: a real thrashing run captures at least
// one bundle, and repeat runs reproduce every byte. TestPlanesAreInert
// (internal/harness) proves the recorder inert.
func TestHarnessBundleByteDeterminism(t *testing.T) {
	run := func(spec harness.Spec) *harness.Result {
		t.Helper()
		res, err := harness.Run(spec)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a := run(thrashSpec())
	if len(a.Bundles) == 0 {
		t.Fatal("thrash config captured no bundles")
	}
	if a.Bundles[0].Trigger == "" || a.Bundles[0].Fingerprint == "" {
		t.Errorf("bundle missing trigger/fingerprint: %+v", a.Bundles[0])
	}
	b := run(thrashSpec())
	if len(a.Bundles) != len(b.Bundles) {
		t.Fatalf("repeat run captured %d bundles, first captured %d", len(b.Bundles), len(a.Bundles))
	}
	for i := range a.Bundles {
		var ba, bb bytes.Buffer
		if err := a.Bundles[i].Encode(&ba); err != nil {
			t.Fatal(err)
		}
		if err := b.Bundles[i].Encode(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Errorf("bundle %d differs between identical runs", i)
		}
	}
}

// TestOffenderTableSaturation: an epoch touching 1500 distinct blocks keeps
// the first 1024, counts every demand to a later block as dropped (repeat
// hits included), ranks only the kept blocks, and the next epoch starts
// from an empty table.
func TestOffenderTableSaturation(t *testing.T) {
	r := newRec(t)
	hit := func(block, times uint64) {
		a := &mem.Access{PAddr: block << 11}
		for i := uint64(0); i < times; i++ {
			r.DemandComplete(a, stats.PathNMHit, 10)
		}
	}
	for b := uint64(0); b < 1500; b++ {
		hit(b, 1)
	}
	hit(5, 7)
	hit(1, 3)
	hit(1023, 3)
	hit(0, 3)
	hit(1200, 9) // not kept: 9 more drops
	trigger(r, health.KindSwapThrash, 0)
	hit(1499, 1)
	feed(r, 1, 1+tailEpochs)
	b := r.Bundles()[0]

	ep0 := b.Epochs[0]
	if ep0.OffenderBlocks != 1024 {
		t.Errorf("OffenderBlocks = %d, want 1024", ep0.OffenderBlocks)
	}
	if want := uint64(1500 - 1024 + 9); ep0.OffendersDropped != want {
		t.Errorf("OffendersDropped = %d, want %d", ep0.OffendersDropped, want)
	}
	want := []flightrec.Offender{
		{Block: 5, Demands: 8, LatCycles: 80},
		{Block: 0, Demands: 4, LatCycles: 40},
		{Block: 1, Demands: 4, LatCycles: 40},
		{Block: 1023, Demands: 4, LatCycles: 40},
		{Block: 2, Demands: 1, LatCycles: 10},
		{Block: 3, Demands: 1, LatCycles: 10},
		{Block: 4, Demands: 1, LatCycles: 10},
		{Block: 6, Demands: 1, LatCycles: 10},
	}
	if len(ep0.Offenders) != len(want) {
		t.Fatalf("offenders = %+v, want %+v", ep0.Offenders, want)
	}
	for i := range want {
		if ep0.Offenders[i] != want[i] {
			t.Errorf("offender %d = %+v, want %+v", i, ep0.Offenders[i], want[i])
		}
	}

	ep1 := b.Epochs[1]
	if ep1.OffenderBlocks != 1 || ep1.OffendersDropped != 0 ||
		len(ep1.Offenders) != 1 || ep1.Offenders[0] != (flightrec.Offender{Block: 1499, Demands: 1, LatCycles: 10}) {
		t.Errorf("epoch after saturation = %d blocks, %d dropped, %+v; want only block 1499",
			ep1.OffenderBlocks, ep1.OffendersDropped, ep1.Offenders)
	}
}

// TestSaturatedEpochDoesNotAllocate: a whole epoch that saturates the
// offender table — hits, drops, then the ranking and reset at the boundary
// — is allocation-free once the table has been full once.
func TestSaturatedEpochDoesNotAllocate(t *testing.T) {
	r := newRec(t)
	st := epochState(0)
	a := &mem.Access{}
	avg := testing.AllocsPerRun(20, func() {
		for b := uint64(0); b < 1500; b++ {
			a.PAddr = b << 11
			r.DemandComplete(a, stats.PathNMHit, 10)
			r.DemandComplete(a, stats.PathNMHit, 10)
		}
		st.Sample.Epoch++
		r.Observe(st, health.Status{})
	})
	if avg != 0 {
		t.Errorf("saturated epoch allocates %.1f objects, want 0", avg)
	}
}

// BenchmarkRecorderBumpSaturated: per-demand cost with the offender table
// full, on a stream of 4096 distinct blocks (a quarter kept, the rest
// dropped).
func BenchmarkRecorderBumpSaturated(b *testing.B) {
	r := flightrec.New(flightrec.Config{}, &mem.System{Eng: sim.NewEngine()}, "bench", "bench/run")
	a := &mem.Access{}
	for blk := uint64(0); blk < 1024; blk++ {
		a.PAddr = blk << 11
		r.DemandComplete(a, stats.PathNMHit, 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.PAddr = uint64(i%4096) << 11
		r.DemandComplete(a, stats.PathNMHit, 10)
	}
}

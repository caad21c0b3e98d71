package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"silcfm/internal/config"
	"silcfm/internal/sim"
)

func newFM(t testing.TB) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(config.DDR3(64<<20), eng)
}

func newNM(t testing.TB) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(config.HBM(16<<20), eng)
}

func TestSingleReadLatency(t *testing.T) {
	eng, d := newFM(t)
	var done sim.Cycle
	d.Submit(Request{Addr: 0, Done: func() { done = eng.Now() }})
	eng.Run()
	// Idle device, closed bank: tRCD + tCAS + burst = (11+11)*4 + 16 = 104.
	want := d.tRCD + d.tCAS + d.Cfg.BurstCPUCycles(64)
	if done != want {
		t.Fatalf("read completed at %d, want %d", done, want)
	}
	if d.Stats().RowMisses != 1 || d.Stats().RowHits != 0 {
		t.Fatalf("row stats: hits=%d misses=%d", d.Stats().RowHits, d.Stats().RowMisses)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	eng, d := newFM(t)
	var t1, t2 sim.Cycle
	d.Submit(Request{Addr: 0, Done: func() { t1 = eng.Now() }})
	eng.Run()
	// Same 64B block again: same row, now open.
	d.Submit(Request{Addr: 0, Done: func() { t2 = eng.Now() }})
	eng.Run()
	lat2 := t2 - t1
	if lat2 >= t1 {
		t.Fatalf("row hit latency %d !< row miss latency %d", lat2, t1)
	}
	if d.Stats().RowHits != 1 {
		t.Fatalf("expected a row hit, got %d", d.Stats().RowHits)
	}
}

func TestRowConflictSlower(t *testing.T) {
	eng, d := newFM(t)
	// Two addresses in the same channel+bank but different rows: stride by
	// channels*banks*rowBuffer bytes.
	stride := uint64(d.Cfg.Channels) * d.banksPerChan * d.Cfg.RowBufferSize
	var t1, t2 sim.Cycle
	d.Submit(Request{Addr: 0, Done: func() { t1 = eng.Now() }})
	eng.Run()
	base := eng.Now()
	d.Submit(Request{Addr: stride, Done: func() { t2 = eng.Now() }})
	eng.Run()
	confLat := t2 - base
	if confLat <= t1 {
		t.Fatalf("conflict latency %d !> first-access latency %d", confLat, t1)
	}
	ch1, b1, r1 := d.mapAddr(0)
	ch2, b2, r2 := d.mapAddr(stride)
	if ch1 != ch2 || b1 != b2 || r1 == r2 {
		t.Fatalf("stride did not produce a row conflict: (%d,%d,%d) vs (%d,%d,%d)", ch1, b1, r1, ch2, b2, r2)
	}
}

func TestChannelInterleaving(t *testing.T) {
	_, d := newFM(t)
	seen := map[int]bool{}
	for blk := uint64(0); blk < uint64(d.Cfg.Channels); blk++ {
		ch, _, _ := d.mapAddr(blk * 64)
		seen[ch] = true
	}
	if len(seen) != d.Cfg.Channels {
		t.Fatalf("consecutive blocks hit %d channels, want %d", len(seen), d.Cfg.Channels)
	}
}

// Property: address mapping is a bijection at 64B granularity within any
// sampled set (no two blocks share channel/bank/row/position implicitly --
// we verify injectivity of (ch,bank,row,colblk)).
func TestMapAddrInjective(t *testing.T) {
	_, d := newFM(t)
	f := func(a, b uint32) bool {
		x := (uint64(a) % (64 << 20)) &^ 63
		y := (uint64(b) % (64 << 20)) &^ 63
		if x == y {
			return true
		}
		cx, bx, rx := d.mapAddr(x)
		cy, by, ry := d.mapAddr(y)
		// Same (channel,bank,row) is allowed only for different columns;
		// reconstruct column block to check full injectivity.
		blocksPerRow := d.Cfg.RowBufferSize / 64
		colx := (x >> 6) / d.nChan / d.banksPerChan % blocksPerRow
		coly := (y >> 6) / d.nChan / d.banksPerChan % blocksPerRow
		return !(cx == cy && bx == by && rx == ry && colx == coly)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBankParallelismBeatsSerial(t *testing.T) {
	// N row-missing reads to DIFFERENT banks should finish sooner than N
	// row-conflicting reads to the SAME bank.
	run := func(stride uint64) sim.Cycle {
		eng, d := newFM(t)
		n := 4
		var last sim.Cycle
		cb := func() { last = eng.Now() }
		for i := 0; i < n; i++ {
			d.Submit(Request{Addr: uint64(i) * stride, Done: cb})
		}
		eng.Run()
		return last
	}
	_, d := newFM(t)
	sameBank := uint64(d.Cfg.Channels) * d.banksPerChan * d.Cfg.RowBufferSize
	diffBank := uint64(d.Cfg.Channels) * 64 // next bank, same channel
	tSame := run(sameBank)
	tDiff := run(diffBank)
	if tDiff >= tSame {
		t.Fatalf("bank-parallel %d !< bank-serial %d", tDiff, tSame)
	}
}

func TestWritesComplete(t *testing.T) {
	eng, d := newFM(t)
	doneReads := 0
	for i := 0; i < 50; i++ {
		d.Submit(Request{Addr: uint64(i) * 64, Write: true})
	}
	d.Submit(Request{Addr: 0, Done: func() { doneReads++ }})
	eng.Run()
	if d.stats.Writes != 50 || doneReads != 1 {
		t.Fatalf("writes=%d reads done=%d", d.stats.Writes, doneReads)
	}
	if d.stats.BytesWritten != 50*64 {
		t.Fatalf("BytesWritten = %d", d.stats.BytesWritten)
	}
}

func TestReadPriorityOverWrites(t *testing.T) {
	// A read arriving amid background writes should not wait for the whole
	// write queue (reads have priority outside drain mode).
	eng, d := newFM(t)
	for i := 0; i < 20; i++ {
		d.Submit(Request{Addr: uint64(i) * 4096, Write: true})
	}
	var readDone sim.Cycle
	d.Submit(Request{Addr: 1 << 20, Done: func() { readDone = eng.Now() }})
	eng.Run()
	total := eng.Now()
	if readDone >= total {
		t.Fatalf("read finished last (%d of %d); write priority broken", readDone, total)
	}
}

func TestHBMFasterThanDDR3UnderLoad(t *testing.T) {
	run := func(mk func(testing.TB) (*sim.Engine, *Device)) sim.Cycle {
		eng, d := mk(t)
		rng := rand.New(rand.NewSource(7))
		n := 2000
		remaining := n
		for i := 0; i < n; i++ {
			d.Submit(Request{Addr: uint64(rng.Intn(1<<22)) &^ 63, Done: func() { remaining-- }})
		}
		eng.Run()
		if remaining != 0 {
			t.Fatalf("%d requests unfinished", remaining)
		}
		return eng.Now()
	}
	tNM := run(newNM)
	tFM := run(newFM)
	// HBM has 4x the bandwidth; a saturating burst should finish in well
	// under half the DDR3 time.
	if tNM*2 >= tFM {
		t.Fatalf("HBM burst %d !<< DDR3 burst %d", tNM, tFM)
	}
}

func TestStreamingRowHitRate(t *testing.T) {
	eng, d := newFM(t)
	n := 1024
	for i := 0; i < n; i++ {
		d.Submit(Request{Addr: uint64(i) * 64})
	}
	eng.Run()
	hitRate := float64(d.Stats().RowHits) / float64(d.Stats().RowHits+d.Stats().RowMisses)
	if hitRate < 0.9 {
		t.Fatalf("streaming row hit rate = %.3f, want > 0.9 (open-page policy)", hitRate)
	}
}

func TestMetaBytesLengthenBurst(t *testing.T) {
	_, d := newFM(t)
	plain := d.Cfg.BurstCPUCycles(64)
	ext := d.Cfg.BurstCPUCycles(64 + 16)
	if ext <= plain {
		t.Fatalf("extended burst %d !> plain %d", ext, plain)
	}
}

func TestEnergyAccumulates(t *testing.T) {
	eng, d := newFM(t)
	d.Submit(Request{Addr: 0})
	d.Submit(Request{Addr: 4096, Write: true})
	eng.Run()
	if d.stats.DynamicEnergyPJ <= 0 {
		t.Fatal("no energy recorded")
	}
	// At least one activation plus read+write bit energy.
	min := d.Cfg.ActivateEnergyPJ + 64*8*(d.Cfg.ReadEnergyPJPerBit+d.Cfg.WriteEnergyPJPerBit)
	if d.stats.DynamicEnergyPJ < min {
		t.Fatalf("energy %v < floor %v", d.stats.DynamicEnergyPJ, min)
	}
}

// Property: all submitted reads complete exactly once, in any order of
// random addresses.
func TestAllReadsCompleteOnce(t *testing.T) {
	f := func(addrs []uint32) bool {
		eng, d := newFM(t)
		count := 0
		for _, a := range addrs {
			d.Submit(Request{Addr: uint64(a) % (64 << 20), Done: func() { count++ }})
		}
		eng.Run()
		return count == len(addrs) && d.QueueDepth() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() sim.Cycle {
		eng, d := newFM(t)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 500; i++ {
			d.Submit(Request{Addr: uint64(rng.Intn(1<<24)) &^ 63, Write: rng.Intn(4) == 0})
		}
		eng.Run()
		return eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func BenchmarkDeviceRandomReads(b *testing.B) {
	eng := sim.NewEngine()
	d := New(config.DDR3(256<<20), eng)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(Request{Addr: uint64(rng.Intn(1<<26)) &^ 63})
		if d.QueueDepth() > 256 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkDeviceBacklog measures one request through a device shaped like
// SILC-FM's metadata channel (one HBM channel, one 64-byte line per set of
// a 128 MiB near memory) that runs about 16k requests behind: 16-byte
// write-backs and background reads to random sets, each op submitting one
// and then completing requests until the backlog is back at its depth.
func BenchmarkDeviceBacklog(b *testing.B) {
	cfg := config.HBM(1 << 20)
	cfg.Channels = 1
	eng := sim.NewEngine()
	d := New(cfg, eng)
	rng := rand.New(rand.NewSource(1))
	req := func() Request {
		w := rng.Intn(2) == 0
		return Request{Addr: uint64(rng.Intn(int(cfg.Capacity))) &^ 63, Bytes: 16, Write: w, Background: !w}
	}
	const depth = 16 << 10
	for d.QueueDepth() < depth {
		d.Submit(req())
	}
	behind := func() bool { return d.QueueDepth() >= depth }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(req())
		eng.RunWhile(behind)
	}
}

func TestRefreshAppliesPeriodically(t *testing.T) {
	eng := sim.NewEngine()
	d := New(config.DDR3(64<<20), eng)
	// First access at t=0, second long after several tREFI periods: the
	// catch-up must count the elapsed refreshes and close the row.
	d.Submit(Request{Addr: 0})
	eng.Run()
	if d.stats.Refreshes != 0 {
		t.Fatalf("refreshes before tREFI: %d", d.stats.Refreshes)
	}
	late := 3*d.tREFI + 10
	eng.At(late, func() { d.Submit(Request{Addr: 0}) })
	eng.Run()
	if d.stats.Refreshes != 3 {
		t.Fatalf("Refreshes = %d, want 3", d.stats.Refreshes)
	}
	// The row was closed by refresh, so the second access to the same
	// address is a row miss, not a hit.
	if d.Stats().RowHits != 0 {
		t.Fatalf("row survived refresh: hits=%d", d.Stats().RowHits)
	}
}

func TestRefreshDelaysAccess(t *testing.T) {
	eng := sim.NewEngine()
	d := New(config.DDR3(64<<20), eng)
	// An access issued right at a refresh boundary waits out tRFC.
	var done sim.Cycle
	eng.At(d.tREFI, func() { d.Submit(Request{Addr: 0, Done: func() { done = eng.Now() }}) })
	eng.Run()
	unloaded := d.UnloadedReadLatency()
	if done < d.tREFI+d.tRFC+unloaded {
		t.Fatalf("access at refresh completed at %d, want >= %d", done, d.tREFI+d.tRFC+unloaded)
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := config.DDR3(64 << 20)
	cfg.Timing.TREFI = 0
	eng := sim.NewEngine()
	d := New(cfg, eng)
	d.Submit(Request{Addr: 0})
	eng.RunUntil(1 << 30)
	eng.At(1<<30, func() { d.Submit(Request{Addr: 0}) })
	eng.Run()
	if d.stats.Refreshes != 0 {
		t.Fatalf("refreshes with TREFI=0: %d", d.stats.Refreshes)
	}
}

func TestBackgroundReadsYieldToDemand(t *testing.T) {
	eng := sim.NewEngine()
	d := New(config.DDR3(64<<20), eng)
	// Flood with background reads, then submit one demand read: it must
	// not finish last.
	for i := 0; i < 64; i++ {
		d.Submit(Request{Addr: uint64(i) * 4096, Background: true})
	}
	var demandDone sim.Cycle
	d.Submit(Request{Addr: 1 << 20, Done: func() { demandDone = eng.Now() }})
	eng.Run()
	if demandDone >= eng.Now() {
		t.Fatalf("demand read finished last (%d of %d)", demandDone, eng.Now())
	}
}

func TestClosedPagePolicy(t *testing.T) {
	cfg := config.DDR3(64 << 20)
	cfg.Policy = config.ClosedPage
	eng := sim.NewEngine()
	d := New(cfg, eng)
	// Repeated access to the same row: no row hits under closed page.
	for i := 0; i < 16; i++ {
		d.Submit(Request{Addr: 0})
		eng.Run()
	}
	if d.Stats().RowHits != 0 {
		t.Fatalf("closed page produced %d row hits", d.Stats().RowHits)
	}
	// But also no conflict penalty: alternating rows costs the same as
	// repeating one row (every access activates from precharged).
	run := func(stride uint64) sim.Cycle {
		eng := sim.NewEngine()
		d := New(cfg, eng)
		for i := 0; i < 16; i++ {
			d.Submit(Request{Addr: uint64(i%2) * stride})
			eng.Run()
		}
		return eng.Now()
	}
	conflictStride := uint64(cfg.Channels) * uint64(cfg.RanksPerChan*cfg.BanksPerRank) * cfg.RowBufferSize
	same, alt := run(0), run(conflictStride)
	if alt > same+uint64(16)*4 {
		t.Fatalf("closed page penalizes alternating rows: %d vs %d", alt, same)
	}
	// Open page is faster for row-hit streams.
	open := config.DDR3(64 << 20)
	engO := sim.NewEngine()
	dO := New(open, engO)
	for i := 0; i < 16; i++ {
		dO.Submit(Request{Addr: 0})
		engO.Run()
	}
	engC := sim.NewEngine()
	dC := New(cfg, engC)
	for i := 0; i < 16; i++ {
		dC.Submit(Request{Addr: 0})
		engC.Run()
	}
	if engO.Now() >= engC.Now() {
		t.Fatalf("open page %d !< closed page %d on a row-hit stream", engO.Now(), engC.Now())
	}
}

// Property: a read never completes faster than the unloaded row-hit floor
// (tCAS + burst), and throughput never exceeds the device's peak bandwidth.
func TestPhysicalBounds(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		d := New(config.DDR3(64<<20), eng)
		rng := rand.New(rand.NewSource(seed))
		floor := d.tCAS + d.Cfg.BurstCPUCycles(64)
		okFloor := true
		n := 400
		for i := 0; i < n; i++ {
			submitAt := eng.Now()
			d.Submit(Request{Addr: uint64(rng.Intn(1<<24)) &^ 63, Done: func() {
				if eng.Now()-submitAt < floor {
					okFloor = false
				}
			}})
			if rng.Intn(4) == 0 {
				eng.Run()
			}
		}
		eng.Run()
		if !okFloor {
			return false
		}
		// Peak bandwidth bound: bytes moved <= elapsed * peak.
		peakBytesPerCycle := d.Cfg.PeakBandwidthGBs() * 1e9 / (float64(config.CPUFreqMHz) * 1e6)
		moved := float64(d.stats.BytesRead + d.stats.BytesWritten)
		return moved <= float64(eng.Now())*peakBytesPerCycle+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: FIFO fairness floor — no read waits forever; with a bounded
// request count every callback fires exactly once (no lost wakeups in the
// kick/issue loop).
func TestNoLostWakeups(t *testing.T) {
	eng := sim.NewEngine()
	d := New(config.HBM(16<<20), eng)
	rng := rand.New(rand.NewSource(3))
	fired := make([]int, 3000)
	for i := 0; i < len(fired); i++ {
		i := i
		d.Submit(Request{
			Addr:       uint64(rng.Intn(1<<22)) &^ 63,
			Write:      rng.Intn(5) == 0,
			Background: rng.Intn(7) == 0,
			Done:       func() { fired[i]++ },
		})
	}
	eng.Run()
	for i, n := range fired {
		if n != 1 {
			t.Fatalf("request %d completed %d times", i, n)
		}
	}
}

// walkQueueDepth counts the queued ops by walking every entry of every
// channel queue, the reference for the queued counter QueueDepth returns.
// On the way it checks each entry against the per-bank counts BankState
// reports and each queue's pages against the entries they hold.
func walkQueueDepth(t *testing.T, d *Device) int {
	t.Helper()
	n := 0
	perBank := make([]int32, len(d.bankQueued))
	for ch := range d.chans {
		for _, q := range [2]*opQueue{&d.chans[ch].readQ, &d.chans[ch].writeQ} {
			for i := 0; i < q.len(); i++ {
				perBank[ch*int(d.banksPerChan)+int(q.at(i).key&d.bankMask)]++
			}
			if want := max(1, (q.head+q.len()+qPageLen-1)/qPageLen); q.pages != nil && len(q.pages) != want {
				t.Fatalf("channel %d queue of %d entries from %d holds %d pages, want %d",
					ch, q.len(), q.head, len(q.pages), want)
			}
			n += q.len()
		}
	}
	for i, k := range perBank {
		if k != d.bankQueued[i] {
			t.Fatalf("bank %d: %d queue entries, bank count %d", i, k, d.bankQueued[i])
		}
	}
	return n
}

// TestQueueDepthMatchesQueueWalk checks QueueDepth against a walk of every
// channel queue under a randomized stream of submits (reads, writes and
// background reads) interleaved with partial drains of the event engine.
func TestQueueDepthMatchesQueueWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		eng, d := newFM(t)
		rng := rand.New(rand.NewSource(seed))
		deepest := 0
		for i := 0; i < 3000; i++ {
			if rng.Intn(30) == 0 {
				// Drain up to a random horizon: some ops issue, some stay queued.
				eng.RunUntil(eng.Now() + sim.Cycle(rng.Intn(1000)))
			} else {
				d.Submit(Request{
					Addr:       uint64(rng.Intn(1<<20)) &^ 63,
					Write:      rng.Intn(3) == 0,
					Background: rng.Intn(8) == 0,
				})
			}
			if got, want := d.QueueDepth(), walkQueueDepth(t, d); got != want {
				t.Fatalf("seed %d step %d: QueueDepth = %d, queue walk %d", seed, i, got, want)
			}
			deepest = max(deepest, d.QueueDepth())
		}
		if deepest < 32 {
			t.Fatalf("seed %d: the stream never queued more than %d ops; test is vacuous", seed, deepest)
		}
		eng.Run()
		if got := d.QueueDepth(); got != 0 || walkQueueDepth(t, d) != 0 {
			t.Fatalf("seed %d: drained device reports depth %d", seed, got)
		}
	}
}

func TestPeakQueueDepthHighWaterMark(t *testing.T) {
	eng, d := newFM(t)
	// Flood one instant with far more requests than the inflight window
	// admits, so a deep queue builds before anything drains.
	const n = 256
	for i := 0; i < n; i++ {
		d.Submit(Request{Addr: uint64(i) * 64})
	}
	depth := d.QueueDepth()
	peak := d.PeakQueueDepth()
	if peak == 0 {
		t.Fatal("no peak recorded after a burst of submits")
	}
	if peak < depth {
		t.Fatalf("peak %d below instantaneous depth %d", peak, depth)
	}
	if got := d.TakePeakQueueDepth(); got != peak {
		t.Fatalf("TakePeakQueueDepth = %d, want %d", got, peak)
	}
	// After the take the mark restarts at the current depth, and once the
	// device drains, a quiet epoch's peak falls to that restart level and
	// then to zero.
	if got := d.PeakQueueDepth(); got != depth {
		t.Fatalf("after take, peak = %d, want current depth %d", got, depth)
	}
	eng.Run()
	if d.QueueDepth() != 0 {
		t.Fatalf("device did not drain: depth %d", d.QueueDepth())
	}
	if got := d.TakePeakQueueDepth(); got != depth {
		t.Fatalf("post-drain take = %d, want the restart level %d", got, depth)
	}
	if got := d.TakePeakQueueDepth(); got != 0 {
		t.Fatalf("idle epoch peak = %d, want 0", got)
	}
}

// TestSteadyStateRequestAllocs pins the request pool: once the queues,
// completion free list and engine wheel are warm, a submit/complete cycle
// allocates nothing — the tentpole's per-request closure and op-copy heap
// traffic must not creep back in.
func TestSteadyStateRequestAllocs(t *testing.T) {
	eng, d := newFM(t)
	done := func() {}
	// Warm up: grow the queue pages and arena, the completion free list,
	// and the scheduler's wheel buckets.
	for i := 0; i < 2000; i++ {
		d.Submit(Request{Addr: uint64(i%64) * 64, Done: done})
		d.Submit(Request{Addr: uint64(i%64) * 64, Write: true, Done: done})
	}
	eng.Run()

	avg := testing.AllocsPerRun(500, func() {
		d.Submit(Request{Addr: 4096, Done: done})
		d.Submit(Request{Addr: 8192, Write: true, Done: done})
		eng.Run()
	})
	if avg > 0 {
		t.Fatalf("steady-state request path allocates %.2f objects/op, want 0", avg)
	}
}

// TestRefreshEnergyChargesOnlyOpenRows pins the refresh energy model on an
// idle-then-refreshed device: a periodic refresh of a bank that is already
// precharged performs no activate, so it must charge no activate energy.
// (The old model charged ActivateEnergyPJ for every bank on every refresh,
// inflating an idle DDR3 channel by 32 activates per tREFI.)
func TestRefreshEnergyChargesOnlyOpenRows(t *testing.T) {
	eng, d := newFM(t)
	// Device idle across three refresh periods, then one read: the catch-up
	// applies 3 refreshes to all-precharged banks. Total dynamic energy must
	// be exactly the read's own activate + bit energy — nothing from refresh.
	late := 3*d.tREFI + 10
	eng.At(late, func() { d.Submit(Request{Addr: 0}) })
	eng.Run()
	if d.stats.Refreshes != 3 {
		t.Fatalf("Refreshes = %d, want 3", d.stats.Refreshes)
	}
	want := d.Cfg.ActivateEnergyPJ + 64*8*d.Cfg.ReadEnergyPJPerBit
	if d.stats.DynamicEnergyPJ != want {
		t.Fatalf("idle-then-refreshed energy = %v pJ, want exactly %v (refresh of precharged banks must be free)",
			d.stats.DynamicEnergyPJ, want)
	}
	if got := d.TotalBankCounters().RefreshCloses; got != 0 {
		t.Fatalf("RefreshCloses = %d on an idle device, want 0", got)
	}

	// Second regression arm: one bank HAS an open row when refresh hits.
	// Exactly one close is charged, and only once — the two later refreshes
	// find the bank precharged again.
	eng2, d2 := newFM(t)
	d2.Submit(Request{Addr: 0}) // opens a row in channel 0, bank 0
	eng2.Run()
	e1 := d2.stats.DynamicEnergyPJ
	eng2.At(3*d2.tREFI+10, func() { d2.Submit(Request{Addr: 0}) })
	eng2.Run()
	// One refresh-close activate, then the read reopens the row (activate +
	// bits). Anything larger means precharged banks were charged again.
	want2 := e1 + 2*d2.Cfg.ActivateEnergyPJ + 64*8*d2.Cfg.ReadEnergyPJPerBit
	if d2.stats.DynamicEnergyPJ != want2 {
		t.Fatalf("refreshed-once energy = %v pJ, want exactly %v", d2.stats.DynamicEnergyPJ, want2)
	}
	if got := d2.TotalBankCounters().RefreshCloses; got != 1 {
		t.Fatalf("RefreshCloses = %d, want 1", got)
	}
}

// TestMapAddrPartitionProperty pins the interleave contract the per-bank
// counters key on: consecutive 64B blocks partition exhaustively and evenly
// across (channel, bank), and same-bank neighbours share a row exactly
// until the row buffer wraps.
func TestMapAddrPartitionProperty(t *testing.T) {
	_, d := newFM(t)
	nCh, nBk := d.Geometry()
	rows := d.Cfg.Capacity / (uint64(nCh) * uint64(nBk) * d.Cfg.RowBufferSize)

	// Exhaustive, even partition: K full interleave turns land K blocks on
	// every (channel, bank) pair, and every decomposition is in range.
	const turns = 64
	counts := make([]uint64, nCh*nBk)
	for blk := uint64(0); blk < uint64(turns*nCh*nBk); blk++ {
		ch, bank, row := d.mapAddr(blk * 64)
		if ch < 0 || ch >= nCh || bank < 0 || bank >= nBk || row >= rows {
			t.Fatalf("block %d maps out of range: (%d,%d,%d)", blk, ch, bank, row)
		}
		counts[ch*nBk+bank]++
	}
	for i, n := range counts {
		if n != turns {
			t.Fatalf("(ch=%d,bank=%d) received %d blocks, want %d (uneven partition)", i/nBk, i%nBk, n, turns)
		}
	}

	// Row locality: walking the same bank in address order (stride = one
	// interleave turn) stays in one row for exactly blocksPerRow steps, then
	// advances to the next row.
	stride := uint64(nCh*nBk) * 64
	blocksPerRow := d.Cfg.RowBufferSize / 64
	steps := 3 * blocksPerRow
	ch0, bk0, _ := d.mapAddr(0)
	for s := uint64(0); s < steps; s++ {
		ch, bank, row := d.mapAddr(s * stride)
		if ch != ch0 || bank != bk0 {
			t.Fatalf("step %d left the bank: (%d,%d), want (%d,%d)", s, ch, bank, ch0, bk0)
		}
		if want := s / blocksPerRow; row != want {
			t.Fatalf("step %d row = %d, want %d (row must wrap every %d same-bank blocks)",
				s, row, want, blocksPerRow)
		}
	}
}

// TestSelectOpFRFCFS pins the scheduler's two-phase policy as a unit test
// on hand-built channel state: a row hit inside the scheduling window wins
// over the oldest op, the oldest op wins when no row hit exists, and a hit
// beyond the window cannot jump the queue, also when the window straddles
// two queue pages.
func TestSelectOpFRFCFS(t *testing.T) {
	_, d := newFM(t)
	c := &d.chans[0]
	push := func(bank int, row uint64) {
		d.push(&c.readQ, entry{key: uint32(row)<<d.bankShift | uint32(bank)})
	}

	// Bank 0 holds row 5 open; the oldest op wants row 7 (conflict), a
	// younger in-window op wants the open row 5: FR-FCFS picks the hit.
	c.banks[0].openRow = 5
	push(0, 7)
	push(0, 5)
	if q, pick := d.selectOp(c); q != &c.readQ || pick != 1 {
		t.Fatalf("row hit in window: picked %d, want 1", pick)
	}

	// Precharged bank: no row hit anywhere, fall back to the oldest.
	c.banks[0].openRow = -1
	if q, pick := d.selectOp(c); q != &c.readQ || pick != 0 {
		t.Fatalf("no-hit fallback: picked %d, want 0 (oldest)", pick)
	}

	// A row hit parked beyond the scheduling window must not be selected,
	// wherever the window starts on its page.
	for _, head := range []int{0, qPageLen - d.Cfg.ReadQueueLen/2} {
		c.readQ = opQueue{}
		for i := 0; i < head; i++ {
			push(1, 0)
		}
		c.banks[0].openRow = 5
		for i := 0; i < d.Cfg.ReadQueueLen; i++ {
			push(0, 7) // in-window: all conflicts
		}
		push(0, 5) // the hit, one past the window
		for i := 0; i < head; i++ {
			d.remove(&c.readQ, 0)
		}
		if c.readQ.head != head {
			t.Fatalf("queue head %d, want %d", c.readQ.head, head)
		}
		if _, pick := d.selectOp(c); pick != 0 {
			t.Fatalf("head %d: hit beyond window: picked %d, want 0 (oldest)", head, pick)
		}
		// The last in-window op becomes the hit: found across the page break.
		c.readQ.at(d.Cfg.ReadQueueLen - 1).key = uint32(5) << d.bankShift
		if _, pick := d.selectOp(c); pick != d.Cfg.ReadQueueLen-1 {
			t.Fatalf("head %d: hit at the window's end: picked %d, want %d", head, pick, d.Cfg.ReadQueueLen-1)
		}
	}
}

// TestIntrospectionLedgersReconcile drives a mixed load and checks the
// per-bank/per-channel ledgers against the aggregate Stats they refine,
// plus the BankState query API.
func TestIntrospectionLedgersReconcile(t *testing.T) {
	eng, d := newFM(t)
	// Conflict pair: same channel+bank, different rows.
	confStride := uint64(d.Cfg.Channels) * d.banksPerChan * d.Cfg.RowBufferSize
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0:
			d.Submit(Request{Addr: uint64(i%2) * confStride}) // alternating rows, same bank
		case 1:
			d.Submit(Request{Addr: uint64(rng.Intn(1<<24)) &^ 63})
		case 2:
			d.Submit(Request{Addr: uint64(rng.Intn(1<<24)) &^ 63, Write: true})
		default:
			d.Submit(Request{Addr: uint64(i) * 64})
		}
		if d.QueueDepth() > 128 {
			eng.Run()
		}
	}
	eng.Run()

	bt := d.TotalBankCounters()
	ct := d.TotalChannelCounters()
	if bt.RowHits != d.Stats().RowHits {
		t.Fatalf("per-bank hits %d != aggregate %d", bt.RowHits, d.Stats().RowHits)
	}
	if bt.RowMisses+bt.RowConflicts != d.Stats().RowMisses {
		t.Fatalf("per-bank misses %d + conflicts %d != aggregate misses %d",
			bt.RowMisses, bt.RowConflicts, d.Stats().RowMisses)
	}
	if bt.RowConflicts == 0 {
		t.Fatal("conflict stride produced no per-bank conflicts")
	}
	// Every request moved one 64-byte burst, so the channel ledger holds
	// exactly one burst per issued read and write.
	if want := (d.stats.Reads + d.stats.Writes) * uint64(d.burst64); ct.BusBusyCycles != want {
		t.Fatalf("per-channel bus busy %d != %d bursts issued x %d cycles",
			ct.BusBusyCycles, d.stats.Reads+d.stats.Writes, d.burst64)
	}
	if bt.BusyCycles == 0 || ct.ReadQueueWait == 0 || ct.WriteQueueWait == 0 {
		t.Fatalf("ledger holes: busy=%d readWait=%d writeWait=%d",
			bt.BusyCycles, ct.ReadQueueWait, ct.WriteQueueWait)
	}
	// Bank busy time cannot exceed wall time summed over banks.
	if max := uint64(eng.Now()) * uint64(len(d.bankCtr)); bt.BusyCycles > max {
		t.Fatalf("bank busy %d exceeds %d bank-cycles of wall time", bt.BusyCycles, max)
	}

	// Row-locality query: a fresh read leaves its row open (open page), and
	// the conflicting row in the same bank reads as closed.
	d.Submit(Request{Addr: 0})
	eng.Run()
	if open, _ := d.BankState(0); !open {
		t.Fatal("BankState(0) reports the row closed immediately after a read")
	}
	if open, _ := d.BankState(confStride); open {
		t.Fatal("BankState reports the conflicting row open")
	}

	// Bank load: flood one bank without draining; every queued op targets it.
	for i := 0; i < 40; i++ {
		d.Submit(Request{Addr: 0})
	}
	if _, got := d.BankState(0); got != d.QueueDepth() {
		t.Fatalf("bank load = %d, want queued depth %d", got, d.QueueDepth())
	}
	if _, got := d.BankState(64); got != 0 { // next channel's bank is idle
		t.Fatalf("BankState(64) load = %d, want 0", got)
	}
	eng.Run()
	if _, got := d.BankState(0); got != 0 {
		t.Fatalf("drained bank load = %d, want 0", got)
	}
}

// TestIntrospectionAllocFree extends the steady-state allocation pin to the
// new counter paths and the query API: per-bank/per-channel accounting,
// BankState and ledger snapshots must all be allocation-free.
func TestIntrospectionAllocFree(t *testing.T) {
	eng, d := newFM(t)
	done := func() {}
	for i := 0; i < 2000; i++ {
		d.Submit(Request{Addr: uint64(i%64) * 64, Done: done})
		d.Submit(Request{Addr: uint64(i%64) * 64, Write: true, Done: done})
	}
	eng.Run()

	var sink uint64
	avg := testing.AllocsPerRun(500, func() {
		d.Submit(Request{Addr: 4096, Done: done})
		d.Submit(Request{Addr: 8192, Write: true, Done: done})
		open, load := d.BankState(4096)
		if open {
			sink++
		}
		sink += uint64(load)
		eng.Run()
		sink += d.TotalBankCounters().RowHits + d.TotalChannelCounters().BusBusyCycles
	})
	if avg > 0 {
		t.Fatalf("introspection path allocates %.2f objects/op, want 0 (sink=%d)", avg, sink)
	}
}

package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/sim"
)

// completionRecord is what one request observed at completion.
type completionRecord struct {
	at             sim.Cycle
	queue, service uint64
	traced, done   int
}

// TestSchedulerMatchesReference drives identical randomized request
// streams through the Device and through refDevice (export_test.go), the
// arena-indexed scheduler it replaced, and requires every request to
// complete at the same cycle with the same (queue, service) split, the
// completion hook to see every request in completion order, and the
// ledgers and queue introspection to agree at random instants. The streams
// mix reads, writes and background reads, payload and metadata sizes,
// refresh on and off, open- and closed-page policy, 1-4 channels, and
// scheduling windows narrower and wider than a queue page.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.DDR3(64 << 20)
		if rng.Intn(2) == 0 {
			cfg = config.HBM(16 << 20)
		}
		cfg.Channels = 1 << rng.Intn(3)
		if rng.Intn(2) == 0 {
			cfg.Timing.TREFI = 0
		}
		if rng.Intn(2) == 0 {
			cfg.Policy = config.ClosedPage
		}
		windows := []int{1, 3, 32, qPageLen + 9}
		cfg.ReadQueueLen = windows[rng.Intn(len(windows))]
		cfg.WriteQueueLen = windows[rng.Intn(len(windows))]
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			diffStream(t, cfg, rng)
		})
	}
}

func diffStream(t *testing.T, cfg config.DRAMConfig, rng *rand.Rand) {
	engN, engR := sim.NewEngine(), sim.NewEngine()
	d, ref := New(cfg, engN), newRefDevice(cfg, engR)
	type hooked struct {
		addr  uint64
		write bool
	}
	var gotHook, wantHook []hooked
	d.OnComplete(func(addr uint64, write bool) { gotHook = append(gotHook, hooked{addr, write}) })

	const n = 6000
	got, want := make([]completionRecord, n), make([]completionRecord, n)
	// A few hot rows per bank give the window scan row hits to find.
	rowSpan := uint64(cfg.Channels) * uint64(cfg.RanksPerChan*cfg.BanksPerRank) * cfg.RowBufferSize
	addr := func() uint64 {
		if rng.Intn(2) == 0 {
			return uint64(rng.Intn(4))*rowSpan + uint64(rng.Intn(int(rowSpan)))&^63
		}
		return uint64(rng.Int63n(int64(cfg.Capacity))) &^ 63
	}
	sizes := []uint64{0, 16, 64, 128, 2048}
	metas := []uint64{0, 0, 8, 32}
	deepest := 0
	for i := 0; i < n; i++ {
		// Mostly short steps, so a backlog builds past the windows and
		// across queue pages; now and then a long one that drains it.
		if k := rng.Intn(400); k < 40 {
			horizon := engN.Now() + sim.Cycle(rng.Intn(150))
			if k == 0 {
				horizon += 20000
			}
			engN.RunUntil(horizon)
			engR.RunUntil(horizon)
			checkInstant(t, i, d, ref, engN, engR, addr())
		}
		r := Request{
			Addr:      addr(),
			Bytes:     sizes[rng.Intn(len(sizes))],
			MetaBytes: metas[rng.Intn(len(metas))],
		}
		switch rng.Intn(4) {
		case 0:
			r.Write = true
		case 1:
			r.Background = true
		}
		rn, rr := r, r
		rn.Done = func() { got[i].at = engN.Now(); got[i].done++ }
		rn.Trace = func(q, s uint64) { got[i].queue, got[i].service = q, s; got[i].traced++ }
		rr.Done = func() {
			want[i].at = engR.Now()
			want[i].done++
			wantHook = append(wantHook, hooked{r.Addr, r.Write})
		}
		rr.Trace = func(q, s uint64) { want[i].queue, want[i].service = q, s; want[i].traced++ }
		d.Submit(rn)
		ref.Submit(rr)
		deepest = max(deepest, d.QueueDepth())
	}
	engN.Run()
	engR.Run()
	checkInstant(t, n, d, ref, engN, engR, addr())
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d: completion %+v, reference %+v", i, got[i], want[i])
		}
		if got[i].done != 1 || got[i].traced != 1 {
			t.Fatalf("request %d completed %d times, traced %d times", i, got[i].done, got[i].traced)
		}
	}
	if !reflect.DeepEqual(gotHook, wantHook) {
		t.Fatalf("completion hook saw %d requests, differing from the %d completions in order", len(gotHook), len(wantHook))
	}
	if deepest <= 2*qPageLen+cfg.ReadQueueLen+cfg.WriteQueueLen {
		t.Fatalf("the stream never queued past the windows and a page (deepest %d); test is vacuous", deepest)
	}
}

// checkInstant compares the two devices' observable state at one instant.
func checkInstant(t *testing.T, step int, d *Device, ref *refDevice, engN, engR *sim.Engine, probe uint64) {
	t.Helper()
	if engN.Now() != engR.Now() {
		t.Fatalf("step %d: clock %d, reference %d", step, engN.Now(), engR.Now())
	}
	if d.QueueDepth() != ref.queued || d.PendingBytes() != ref.PendingBytes() {
		t.Fatalf("step %d: depth %d / %d pending bytes, reference %d / %d",
			step, d.QueueDepth(), d.PendingBytes(), ref.queued, ref.PendingBytes())
	}
	gotOpen, gotLoad := d.BankState(probe)
	wantOpen, wantLoad := ref.BankState(probe)
	if gotOpen != wantOpen || gotLoad != wantLoad {
		t.Fatalf("step %d: BankState(%#x) = %v/%d, reference %v/%d", step, probe, gotOpen, gotLoad, wantOpen, wantLoad)
	}
	if !reflect.DeepEqual(d.BankCounters(), ref.bankCtr) || !reflect.DeepEqual(d.ChannelCounters(), ref.chanCtr) {
		t.Fatalf("step %d: bank/channel ledgers differ from the reference", step)
	}
	if *d.Stats() != *ref.Stats() {
		t.Fatalf("step %d: stats %+v, reference %+v", step, *d.Stats(), *ref.Stats())
	}
}

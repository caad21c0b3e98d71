package core

import (
	"math/rand"
	"reflect"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
)

// churn drives a random access mix through the rig to build up remap,
// lock and counter state.
func churn(r *testRig, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		var pa uint64
		if rng.Intn(2) == 0 {
			pa = fmBlockAddr(rng.Intn(64), uint(rng.Intn(32)))
		} else {
			pa = uint64(rng.Intn(64))*memunits.BlockSize + uint64(rng.Intn(32))*64
		}
		r.access(uint64(100+rng.Intn(8)), pa, rng.Intn(3) == 0)
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	r := newRig(func(cfg *config.SILCConfig) {
		cfg.HotThreshold = 4 // lock quickly so locks are part of the state
	})
	rng := rand.New(rand.NewSource(42))
	churn(r, rng, 800)

	saved := r.c.SaveState()
	snapAt := r.c.Snapshot()
	locAt := make(map[uint64]mem.Location)
	for sb := uint64(0); sb < memunits.SubblocksIn(r.sys.NMCap+r.sys.FMCap); sb += 7 {
		pa := memunits.SubblockBase(sb)
		locAt[pa] = r.c.Locate(pa)
	}

	// Keep churning: the live state diverges from the snapshot.
	churn(r, rng, 800)
	if reflect.DeepEqual(r.c.Snapshot(), snapAt) {
		t.Fatal("state did not diverge; test is vacuous")
	}

	r.c.RestoreState(saved)
	// Gauges reads counts kept at the mutation sites; a restore bypasses
	// those, so it must recount.
	if got, want := r.c.fs.counts, r.c.fs.recount(); got != want {
		t.Errorf("frame counts after restore %+v, recount %+v", got, want)
	}
	if got := r.c.Snapshot(); !reflect.DeepEqual(got, snapAt) {
		t.Errorf("snapshot after restore differs:\n got %+v\nwant %+v", got, snapAt)
	}
	for pa, want := range locAt {
		if got := r.c.Locate(pa); got != want {
			t.Errorf("Locate(%#x) = %v after restore, want %v", pa, got, want)
		}
	}
}

func TestSaveStateIsDeepCopy(t *testing.T) {
	r := newRig(nil)
	rng := rand.New(rand.NewSource(7))
	churn(r, rng, 300)

	saved := r.c.SaveState()
	before := make([]frame, len(saved.frames))
	copy(before, saved.frames)

	// Mutating the live controller must not leak into the snapshot.
	churn(r, rng, 300)
	if !reflect.DeepEqual(saved.frames, before) {
		t.Fatal("SaveState aliases live frame storage")
	}
}

func TestRestorePreservesFrameFields(t *testing.T) {
	r := newRig(func(cfg *config.SILCConfig) { cfg.HotThreshold = 4 })
	rng := rand.New(rand.NewSource(9))
	churn(r, rng, 1000)

	saved := r.c.SaveState()
	want := make([]frame, len(r.c.fs.frames))
	copy(want, r.c.fs.frames)

	churn(r, rng, 500)
	r.c.RestoreState(saved)

	// Field-level round trip: remap, bits, locks, counters, LRU, history
	// index all survive.
	if !reflect.DeepEqual(r.c.fs.frames, want) {
		t.Fatal("frame fields differ after restore")
	}
	// And the restored mapping is still a valid bijection.
	if err := mem.Audit(r.c, r.sys.NMCap, r.sys.FMCap); err != nil {
		t.Fatalf("restored state fails audit: %v", err)
	}
}

func TestRestoreRejectsMismatchedGeometry(t *testing.T) {
	r := newRig(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreState accepted a mismatched snapshot")
		}
	}()
	r.c.RestoreState(&State{frames: make([]frame, 1)})
}

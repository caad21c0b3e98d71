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

// TestFrameCountsTrackChurn drives bursts of random accesses with quick
// locking and checks after each burst that the frame counts kept at the
// mutation sites equal a recount of the frame array, that Snapshot's
// histograms sum to its totals, and that the mapping still audits clean.
func TestFrameCountsTrackChurn(t *testing.T) {
	r := newRig(func(cfg *config.SILCConfig) {
		cfg.HotThreshold = 4 // lock quickly so locks are part of the state
	})
	rng := rand.New(rand.NewSource(42))
	var prev Snapshot
	sawLock := false
	for round := 0; round < 4; round++ {
		churn(r, rng, 400)
		if got, want := r.c.fs.counts, r.c.fs.recount(); got != want {
			t.Fatalf("round %d: frame counts %+v, recount %+v", round, got, want)
		}
		s := r.c.Snapshot()
		var frames, resident, sets, occupied int
		for k, n := range s.BitsHistogram {
			frames += n
			resident += k * n
		}
		for w, n := range s.SetOccupancy {
			sets += n
			occupied += w * n
		}
		if frames != s.Interleaved || resident != s.ResidentSubblocks || sets != s.Sets || occupied != s.Interleaved {
			t.Fatalf("round %d: histograms disagree with totals: %+v", round, s)
		}
		if round > 0 && reflect.DeepEqual(s, prev) {
			t.Fatalf("round %d: state did not change; test is vacuous", round)
		}
		prev = s
		sawLock = sawLock || s.Locked > 0
		if err := mem.Audit(r.c, r.sys.NMCap, r.sys.FMCap); err != nil {
			t.Fatalf("round %d: audit: %v", round, err)
		}
	}
	if !sawLock {
		t.Fatal("churn never locked a frame")
	}
}

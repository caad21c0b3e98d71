package core

import (
	"testing"

	"silcfm/internal/config"
)

// Coverage for the bypass-governor interactions fixed alongside the shadow
// checker: the swapped-out-home FM service is accounted as bypassed, and
// lock completion (which generates a burst of swap traffic) defers while
// the governor is balancing bandwidth.

// TestBypassedHomeAccessCounted: an NM-address access whose home subblock
// is swapped out and serviced from FM because of bypassing (not because of
// a lock) must count toward BypassedAccesses.
func TestBypassedHomeAccessCounted(t *testing.T) {
	r := newRig(nil)
	// Interleave FM block 0's subblock 3 into frame 0: home subblock 3 is
	// now swapped out to FM.
	r.access(1, fmBlockAddr(0, 3), false)
	r.c.gov.active = true

	st := r.sys.Stats
	preByp, preFM, preOut := st.BypassedAccesses, st.ServicedFM, st.SwapsOut
	r.access(2, uint64(3*64), false) // home subblock 3 of NM block 0
	if st.ServicedFM != preFM+1 {
		t.Fatal("swapped-out home access not FM-serviced under bypass")
	}
	if st.SwapsOut != preOut {
		t.Fatal("bypass did not suppress the swap-back")
	}
	if st.BypassedAccesses != preByp+1 {
		t.Fatalf("BypassedAccesses = %d, want %d (home-address bypass uncounted)",
			st.BypassedAccesses, preByp+1)
	}
}

// TestLockedHomeAccessNotCountedAsBypassed: the same FM service caused by a
// locked frame is lock behavior, not bypassing, and must not inflate the
// counter.
func TestLockedHomeAccessNotCountedAsBypassed(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) {
		c.HotThreshold = 3
		c.Features.Ways = 1
	})
	for i := 0; i < 4; i++ {
		r.access(1, fmBlockAddr(0, 0), false)
	}
	if r.c.fs.recount().locked != 1 {
		t.Fatal("setup: not locked")
	}
	pre := r.sys.Stats.BypassedAccesses
	r.access(2, uint64(5*64), false) // home of the locked frame, FM-serviced
	if r.sys.Stats.BypassedAccesses != pre {
		t.Fatalf("locked-frame FM service counted as bypassed (%d -> %d)",
			pre, r.sys.Stats.BypassedAccesses)
	}
}

// TestRemapLockDeferredUnderBypass: crossing the hotness threshold while
// the governor is bypassing must not complete the lock (the completion
// swaps in every missing subblock); the lock lands on the next access after
// bypassing clears.
func TestRemapLockDeferredUnderBypass(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) { c.HotThreshold = 3 })
	r.access(1, fmBlockAddr(0, 0), false) // interleave, fmCtr=1
	r.access(1, fmBlockAddr(0, 0), false) // row 1, fmCtr=2
	r.c.gov.active = true

	preIn := r.sys.Stats.SwapsIn
	r.access(1, fmBlockAddr(0, 0), false) // fmCtr=3 crosses the threshold
	if r.c.fs.recount().locked != 0 {
		t.Fatal("lock completed while bypassing")
	}
	if r.sys.Stats.SwapsIn != preIn {
		t.Fatal("lock-completion swaps issued while bypassing")
	}

	r.c.gov.active = false
	r.access(1, fmBlockAddr(0, 0), false)
	if r.c.fs.recount().locked != 1 {
		t.Fatal("lock did not complete after bypassing cleared")
	}
	if r.sys.Stats.SwapsIn != preIn+31 { // the 31 missing subblocks
		t.Fatalf("lock completion swapped %d subblocks, want 31",
			r.sys.Stats.SwapsIn-preIn)
	}
}

// TestHomeLockDeferredUnderBypass: a hot home block over an interleaved
// frame needs a restore (swap traffic) before locking; that too defers
// while bypassing.
func TestHomeLockDeferredUnderBypass(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) { c.HotThreshold = 2 })
	r.access(1, fmBlockAddr(0, 0), false) // frame 0 interleaved, bit 0 set
	r.c.gov.active = true

	preOut := r.sys.Stats.SwapsOut
	r.access(2, uint64(5*64), false) // home resident, nmCtr=1
	r.access(2, uint64(5*64), false) // nmCtr=2 crosses the threshold
	if r.c.fs.recount().locked != 0 {
		t.Fatal("home lock completed while bypassing")
	}
	if r.sys.Stats.SwapsOut != preOut {
		t.Fatal("restore issued while bypassing")
	}

	r.c.gov.active = false
	r.access(2, uint64(5*64), false)
	fr := r.c.fs.get(0)
	if !fr.locked || !fr.lockHome {
		t.Fatalf("home lock missing after bypass cleared: locked=%v home=%v",
			fr.locked, fr.lockHome)
	}
	if fr.interleaved() {
		t.Fatal("home lock kept the interleaved block")
	}
}

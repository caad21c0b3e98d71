package core

import (
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/dram"
	"silcfm/internal/mem"
	"silcfm/internal/stats"
)

// issueContext is what an issue-time observer (the exemplar recorder)
// samples when a demand is dispatched: the scheme's lock state for the
// demanded block and the load of the bank the demand targets.
type issueContext struct {
	locked, home bool
	load         int
}

// issueLog records the issue context of every demand and, at every swap
// the controller starts, the load of the last demand's bank.
type issueLog struct {
	c         *Controller
	sys       *mem.System
	issues    []issueContext
	last      mem.Location
	swapLoads []int
}

func (*issueLog) Demand(uint64, mem.Location, bool) {}
func (*issueLog) Capture(mem.Location)              {}
func (*issueLog) Deliver(_, _ mem.Location)         {}
func (*issueLog) Relocate(_, _ mem.Location)        {}
func (*issueLog) Lock(uint64, uint64, bool)         {}
func (*issueLog) Unlock(uint64, uint64)             {}
func (l *issueLog) bankLoad(loc mem.Location) int {
	_, n := l.sys.Device(loc.Level).BankState(loc.DevAddr)
	return n
}
func (l *issueLog) Swap(_, _ mem.Location) { l.swapLoads = append(l.swapLoads, l.bankLoad(l.last)) }
func (l *issueLog) DemandIssue(a *mem.Access, _ stats.DemandPath, loc mem.Location) {
	locked, home := l.c.LockState(a.PAddr)
	l.issues = append(l.issues, issueContext{locked, home, l.bankLoad(loc)})
	l.last = loc
}

func newIssueRig(t *testing.T) (*testRig, *issueLog) {
	t.Helper()
	r := newRig(func(c *config.SILCConfig) {
		c.HotThreshold = 4
		c.Features.Ways = 1
		c.Features.BitVecHistory = false
	})
	log := &issueLog{c: r.c, sys: r.sys}
	r.sys.AttachObserver(log)
	return r, log
}

// TestIssueSeesPreLockState: the access whose counter locks its block is
// issued before the lock, so an issue observer sees the block unlocked;
// the next access sees it locked. This holds for a remapped FM block and
// for a hot home block.
func TestIssueSeesPreLockState(t *testing.T) {
	for _, tc := range []struct {
		name string
		pa   uint64
		home bool
	}{
		{"remap lock", fmBlockAddr(0, 0), false},
		{"home lock", 5 * 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, log := newIssueRig(t)
			for i := 0; i < 4; i++ {
				if r.sys.Stats.Locks != 0 {
					t.Fatalf("locked after %d accesses, want after 4", i)
				}
				r.access(100, tc.pa, false)
			}
			if r.sys.Stats.Locks != 1 {
				t.Fatalf("Locks = %d after 4 accesses, want 1", r.sys.Stats.Locks)
			}
			if got := log.issues[3]; got.locked {
				t.Fatalf("locking access issued with lock state %+v, want the pre-lock state", got)
			}
			r.access(100, tc.pa, false)
			if got := log.issues[4]; !got.locked || got.home != tc.home {
				t.Fatalf("next access issued with lock state %+v, want locked, home=%v", got, tc.home)
			}
		})
	}
}

// TestIssueSeesPreRestoreBankLoad: an install miss that restores a victim
// issues its demand before the restore's exchanges, so the issue observer
// sees the demand's FM bank as it was before the restore queued a read
// there. The rig's FM has 4 channels of 8 banks and issues at most 16
// requests per channel, so FM blocks 0, 128 and 256 (256 KiB apart) put
// their subblock 2 in one bank, and a backlog queued there first makes
// every later read to that bank wait: the bank's load then counts each
// one. The restore's exchange of block 0's subblock 2 must find the
// demand queued and nothing else new; the install's exchange, the
// restore's read as well.
func TestIssueSeesPreRestoreBankLoad(t *testing.T) {
	r, log := newIssueRig(t)
	r.access(100, fmBlockAddr(0, 2), false) // interleave FM block 0 into frame 0
	log.issues, log.swapLoads = nil, nil
	backlog := r.sys.HomeLocation(fmBlockAddr(256, 2)).DevAddr
	for i := 0; i < 48; i++ {
		r.sys.FM.Submit(dram.Request{Addr: backlog, Bytes: 64})
	}
	r.access(200, fmBlockAddr(128, 2), false) // same set: restore block 0 first
	if r.sys.Stats.SwapsOut != 1 || r.sys.Stats.SwapsIn != 2 {
		t.Fatalf("setup: %d swap-outs and %d swap-ins, want one restore and two installs",
			r.sys.Stats.SwapsOut, r.sys.Stats.SwapsIn)
	}
	if len(log.issues) != 1 || len(log.swapLoads) != 2 {
		t.Fatalf("setup: %d demand issues and %d swaps, want 1 and 2", len(log.issues), len(log.swapLoads))
	}
	issued := log.issues[0].load
	if want := []int{issued + 1, issued + 2}; log.swapLoads[0] != want[0] || log.swapLoads[1] != want[1] {
		t.Fatalf("demand bank load: %d at issue, %v at the restore and install exchanges, want %v",
			issued, log.swapLoads, want)
	}
}

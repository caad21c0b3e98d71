package shadow

import (
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/core"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

// silcRig builds a small SILC-FM controller wrapped by the checker.
func silcRig(t *testing.T, fault bool) (*sim.Engine, *mem.System, *Checker) {
	t.Helper()
	m := config.Small()
	m.NM = config.HBM(256 << 10)
	m.FM = config.DDR3(1 << 20)
	cfg := config.DefaultSILC()
	cfg.Features.Predictor = false // keep the demand path synchronous-ish
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	sys.FaultInjectSwapOrder = fault
	ctl := core.New(sys, cfg)
	return eng, sys, New(ctl, sys, sys.NMCap, sys.FMCap)
}

// fmAddr is the flat address of subblock idx of the i-th FM block.
func fmAddr(sys *mem.System, i uint64, idx uint64) uint64 {
	return sys.NMCap + i*2048 + idx*64
}

func TestCheckerPassesCorrectSwaps(t *testing.T) {
	eng, sys, chk := silcRig(t, false)
	// Interleave a few FM subblocks, swap a home subblock back via a write,
	// and re-read everything.
	for _, idx := range []uint64{3, 7, 11} {
		chk.Handle(&mem.Access{PC: 1, PAddr: fmAddr(sys, 0, idx)})
		eng.Run()
	}
	chk.Handle(&mem.Access{PC: 2, PAddr: 3 * 64, Write: true}) // home of frame 0, swapped out
	eng.Run()
	chk.Handle(&mem.Access{PC: 3, PAddr: fmAddr(sys, 0, 7), Write: true}) // NM-resident write
	eng.Run()
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Check(); err != nil {
		t.Fatal(err)
	}
	if chk.Events() == 0 {
		t.Fatal("checker observed no events")
	}
}

// TestCheckerFlagsSeededSwapOrderingMutation proves the tentpole claim: with
// the pre-fix write-path ordering reintroduced (demand write lands at the
// destination before its old contents are read out), the checker reports
// data loss on the first write that takes the swap path.
func TestCheckerFlagsSeededSwapOrderingMutation(t *testing.T) {
	eng, sys, chk := silcRig(t, true)
	// Interleave FM block 0's subblock 3 into frame 0 (read), then write to
	// a not-yet-resident subblock of the same block: Table I row 2 with a
	// write takes the swap path, whose mutated ordering destroys the home
	// subblock's only copy.
	chk.Handle(&mem.Access{PC: 1, PAddr: fmAddr(sys, 0, 3)})
	eng.Run()
	chk.Handle(&mem.Access{PC: 1, PAddr: fmAddr(sys, 0, 7), Write: true})
	eng.Run()
	err := chk.Err()
	if err == nil {
		t.Fatal("checker missed the seeded swap-ordering mutation")
	}
	if !strings.Contains(err.Error(), "data loss") {
		t.Fatalf("unexpected error class: %v", err)
	}
}

// TestStressFlagsSeededMutation proves the randomized driver also catches
// the seeded bug (and that the identical run without the seed is clean).
func TestStressFlagsSeededMutation(t *testing.T) {
	o := StressOptions{Scheme: config.SchemeSILCFM, Seed: 11, Ops: 8000}
	if err := RunStress(o); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	o.FaultInjectSwapOrder = true
	err := RunStress(o)
	if err == nil {
		t.Fatal("stress driver missed the seeded swap-ordering mutation")
	}
	if !strings.Contains(err.Error(), "data loss") {
		t.Fatalf("unexpected error class: %v", err)
	}
}

// TestCheckerFlagsUncapturedOverwrite unit-tests the data-loss rule via raw
// observer events: writing over a live, uncaptured token is an error.
func TestCheckerFlagsUncapturedOverwrite(t *testing.T) {
	_, sys, chk := silcRig(t, false)
	nm0 := mem.Location{Level: stats.NM, DevAddr: 0}
	// Demand-write flat FM subblock 0's data over NM slot 0 without
	// capturing the home data first.
	chk.Demand(fmAddr(sys, 0, 0), nm0, true)
	if chk.Err() == nil {
		t.Fatal("uncaptured overwrite not flagged")
	}
}

// TestCheckerFlagsDeliverWithoutCapture unit-tests the ordering rule.
func TestCheckerFlagsDeliverWithoutCapture(t *testing.T) {
	_, _, chk := silcRig(t, false)
	nm0 := mem.Location{Level: stats.NM, DevAddr: 0}
	fm0 := mem.Location{Level: stats.FM, DevAddr: 0}
	chk.Deliver(nm0, fm0)
	if err := chk.Err(); err == nil || !strings.Contains(err.Error(), "without a prior capture") {
		t.Fatalf("deliver-without-capture not flagged: %v", err)
	}
}

// TestCheckerFlagsWrittenRelocation: a one-way block copy over
// demand-written data is a loss even though the mapping stays a bijection —
// exactly the class of bug mem.Audit cannot see.
func TestCheckerFlagsWrittenRelocation(t *testing.T) {
	_, sys, chk := silcRig(t, false)
	nm0 := mem.Location{Level: stats.NM, DevAddr: 0}
	fm0 := mem.Location{Level: stats.FM, DevAddr: 0}
	chk.Demand(0, nm0, true) // flat NM subblock 0 now holds written data
	chk.Relocate(fm0, nm0)   // one-way copy clobbers it
	if err := chk.Err(); err == nil || !strings.Contains(err.Error(), "demand-written") {
		t.Fatalf("written relocation not flagged: %v", err)
	}
	_ = sys
}

// TestCheckerLocateDisagreement: a Locate answer that contradicts the data
// movement is caught at the post-access check.
func TestCheckerLocateDisagreement(t *testing.T) {
	eng, sys, chk := silcRig(t, false)
	// Move flat FM subblock (0,3) into NM behind the controller's back:
	// the controller's Locate still reports the FM home, disagreeing with
	// the shadow placement.
	sys.ExchangeSubblocks(
		mem.Location{Level: stats.NM, DevAddr: 3 * 64},
		mem.Location{Level: stats.FM, DevAddr: 3 * 64})
	eng.Run()
	chk.Handle(&mem.Access{PC: 1, PAddr: 5 * 64}) // any access triggers the check... of its own address
	eng.Run()
	if err := chk.Check(); err == nil {
		t.Fatal("Locate/shadow disagreement not flagged")
	}
}

package core

import (
	"slices"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// The placement machine is driven here on its own: no engine, no devices,
// no metadata channel. Each step's moves are compared as an ordered list,
// because the shell replays them in that order and the order decides
// which same-cycle device and metadata requests queue first.

// machine builds the placement state of 8 direct-mapped NM frames (8
// sets), so FM blocks 8, 16, 24, ... all map to set 0 with frame 0.
func machine(mut func(*config.SILCConfig)) *placement {
	cfg := config.DefaultSILC()
	cfg.Features.Ways = 1
	cfg.AgingInterval = 0
	cfg.HistoryEntries = 256
	cfg.HotThreshold = 63 // counters saturate at 63: no lock unless a test lowers it
	if mut != nil {
		mut(&cfg)
	}
	return newPlacement(8, cfg)
}

// step runs both Table I steps for one access by pc to subblock idx of
// block b at cycle now and returns copies of their moves.
func step(m *placement, b uint64, idx uint, pc, now uint64) (demand, settle []move) {
	f, fr, moves := m.demand(b, idx, now)
	demand = slices.Clone(moves)
	settle = slices.Clone(m.settle(b, f, fr, idx, pc, memunits.SubblockAddr(b, idx), now))
	return demand, settle
}

func serveAt(path stats.DemandPath, idx uint, src uint64) move {
	return move{kind: moveServe, path: path, idx: idx, src: src}
}

func demandSwap(kind moveKind, idx uint, src, dst uint64) move {
	return move{kind: kind, path: stats.PathSwap, idx: idx, src: src, dst: dst}
}

func exchange(kind moveKind, idx uint, src, dst uint64) move {
	return move{kind: kind, idx: idx, src: src, dst: dst}
}

func metaWrite(set uint64) move { return move{kind: moveMetaWrite, src: set} }

// expectStep runs one access and checks both steps' moves.
func expectStep(t *testing.T, what string, m *placement, b uint64, idx uint, pc, now uint64, wantDemand, wantSettle []move) {
	t.Helper()
	d, s := step(m, b, idx, pc, now)
	if !slices.Equal(d, wantDemand) {
		t.Fatalf("%s: demand moves\n got %+v\nwant %+v", what, d, wantDemand)
	}
	if !slices.Equal(s, wantSettle) {
		t.Fatalf("%s: settle moves\n got %+v\nwant %+v", what, s, wantSettle)
	}
}

// expectHolder checks which block's home holds subblock idx of block b.
func expectHolder(t *testing.T, m *placement, b uint64, idx uint, want uint64) {
	t.Helper()
	if got := m.holder(b, idx); got != want {
		t.Fatalf("subblock %d of block %d sits at block %d's home, want %d's", idx, b, got, want)
	}
}

// expectLock checks the lock state of the frame backing block b.
func expectLock(t *testing.T, m *placement, b uint64, locked, home bool) {
	t.Helper()
	_, fr := m.fs.lookup(b)
	if fr == nil || fr.locked != locked || fr.lockHome != home {
		t.Fatalf("block %d: frame %+v, want locked=%v home=%v", b, fr, locked, home)
	}
}

// TestTableIMoves walks the six Table I cases, the victim restore, the
// history replay, the lock fill, the home lock and an aging unlock through
// one direct-mapped set.
func TestTableIMoves(t *testing.T) {
	m := machine(nil)
	const a, b = 8, 16 // FM blocks of set 0, frame 0

	// Row 5: no frame holds A; serve from FM, then interleave A into the
	// free frame with the demanded subblock.
	expectStep(t, "row 5", m, a, 3, 100, 1,
		[]move{serveAt(stats.PathFM, 3, a)},
		[]move{exchange(moveSwapIn, 3, a, 0), metaWrite(0)})
	expectHolder(t, m, a, 3, 0)
	expectHolder(t, m, 0, 3, a)

	// Row 1: remap match, bit set -> serve from NM.
	expectStep(t, "row 1", m, a, 3, 100, 2, []move{serveAt(stats.PathNMHit, 3, 0)}, nil)

	// Row 2: remap match, bit clear -> the demand swaps the subblock in.
	expectStep(t, "row 2", m, a, 7, 100, 3,
		[]move{demandSwap(moveDemandIn, 7, a, 0), metaWrite(0)}, nil)
	expectHolder(t, m, a, 7, 0)

	// Row 4: NM address, bit clear -> serve the home subblock from NM.
	expectStep(t, "row 4", m, 0, 5, 100, 4, []move{serveAt(stats.PathNMHit, 5, 0)}, nil)

	// Row 3: NM address, bit set -> the demand swaps the home subblock
	// back from A's FM home.
	expectStep(t, "row 3", m, 0, 3, 100, 5,
		[]move{demandSwap(moveDemandOut, 3, a, 0), metaWrite(0)}, nil)
	expectHolder(t, m, 0, 3, 0)
	expectHolder(t, m, a, 3, a)

	// Row 6: B conflicts with A. Serve B from FM, restore A's resident
	// subblock 7 first, then install B with its demanded subblock.
	expectStep(t, "row 6", m, b, 2, 200, 6,
		[]move{serveAt(stats.PathFM, 2, b)},
		[]move{exchange(moveSwapOut, 7, 0, a), exchange(moveSwapIn, 2, b, 0), metaWrite(0)})
	expectHolder(t, m, a, 7, a)
	expectHolder(t, m, b, 2, 0)
	if m.restores != 1 || m.hist.stores != 1 {
		t.Fatalf("restores %d, history stores %d, want 1 and 1", m.restores, m.hist.stores)
	}

	// History replay: A returns under the PC that first interleaved it.
	// B is restored, then A's demanded subblock swaps in before the saved
	// vector's subblock 7.
	expectStep(t, "history replay", m, a, 3, 100, 7,
		[]move{serveAt(stats.PathFM, 3, a)},
		[]move{exchange(moveSwapOut, 2, 0, b), exchange(moveSwapIn, 3, a, 0),
			exchange(moveSwapIn, 7, a, 0), metaWrite(0)})
	if m.historyPrefetches != 1 {
		t.Fatalf("history prefetches %d, want 1", m.historyPrefetches)
	}
	expectHolder(t, m, a, 7, 0)
	expectLock(t, m, a, false, false)
}

// TestTableILockMoves: a remapped block that turns hot locks after its
// demand, filling every missing subblock first; a hot home block locks
// after restoring the interleaved block; aging releases a cooled lock.
func TestTableILockMoves(t *testing.T) {
	t.Run("lock fill", func(t *testing.T) {
		m := machine(func(c *config.SILCConfig) { c.HotThreshold = 4 })
		const a = 8
		step(m, a, 0, 100, 1) // install: counter 1
		step(m, a, 0, 100, 2) // 2
		step(m, a, 0, 100, 3) // 3
		var fill []move
		for i := uint(1); i < memunits.SubblocksPerBlock; i++ {
			fill = append(fill, exchange(moveSwapIn, i, a, 0))
		}
		fill = append(fill, move{kind: moveLock, src: 0, dst: a}, metaWrite(0))
		expectStep(t, "fourth access", m, a, 0, 100, 4, []move{serveAt(stats.PathNMHit, 0, 0)}, fill)
		expectLock(t, m, a, true, false)
		for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
			expectHolder(t, m, a, i, 0)
		}

		// A locked frame pins A: the home block's swapped-out subblock is
		// served where it sits, and a conflicting block finds no victim.
		expectStep(t, "home under lock", m, 0, 9, 100, 5, []move{serveAt(stats.PathFM, 9, a)}, nil)
		expectStep(t, "conflict under lock", m, 16, 0, 200, 6, []move{serveAt(stats.PathFM, 0, 16)}, nil)

		// Aging halves the counter (4 -> 2, not below half the threshold),
		// then again (-> 1): the second pass unlocks A.
		for pass, want := range [][]move{nil, {{kind: moveUnlock, src: 0, dst: a}}} {
			m.moves = m.moves[:0]
			m.age()
			if !slices.Equal(m.moves, want) {
				t.Fatalf("aging pass %d: moves %+v, want %+v", pass, m.moves, want)
			}
		}
		expectLock(t, m, a, false, false)
		expectHolder(t, m, a, 31, 0)
	})

	t.Run("home lock", func(t *testing.T) {
		m := machine(func(c *config.SILCConfig) { c.HotThreshold = 4 })
		const a = 8
		step(m, a, 3, 100, 1)
		step(m, a, 7, 100, 2)
		for now := uint64(3); now < 6; now++ {
			step(m, 0, 5, 100, now) // home counter 1..3
		}
		expectStep(t, "fourth home access", m, 0, 5, 100, 6,
			[]move{serveAt(stats.PathNMHit, 5, 0)},
			[]move{exchange(moveSwapOut, 3, 0, a), exchange(moveSwapOut, 7, 0, a),
				{kind: moveLock, src: 0, dst: 0}, metaWrite(0)})
		expectLock(t, m, 0, true, true)
		expectHolder(t, m, a, 3, a)
		expectHolder(t, m, 0, 3, 0)
		expectStep(t, "install into a home-locked set", m, a, 3, 100, 7,
			[]move{serveAt(stats.PathFM, 3, a)}, nil)
	})

	t.Run("bypass", func(t *testing.T) {
		m := machine(nil)
		const a = 8
		step(m, a, 3, 100, 1)
		m.gov.active = true
		expectStep(t, "row 2 under bypass", m, a, 7, 100, 2, []move{serveAt(stats.PathBypass, 7, a)}, nil)
		expectStep(t, "row 3 under bypass", m, 0, 3, 100, 3, []move{serveAt(stats.PathBypass, 3, a)}, nil)
		expectStep(t, "row 6 under bypass", m, 16, 0, 200, 4, []move{serveAt(stats.PathBypass, 0, 16)}, nil)
		expectHolder(t, m, a, 3, 0)
	})
}

package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"silcfm/internal/mem"
	"silcfm/internal/memunits"
)

// TestFrameIs32Bytes pins the compact frame layout: two frames per
// 64-byte host cache line.
func TestFrameIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(frame{}); n != 32 {
		t.Fatalf("sizeof(frame) = %d, want 32", n)
	}
}

// get returns frame f.
func (fs *frameSet) get(f uint64) *frame { return &fs.frames[fs.at(f)] }

// TestZeroFrameHoldsNoRemap: a fresh frame set needs no fill to read as
// empty, and the block+1 encoding covers block 0 and the largest block a
// valid machine has (2^32-2).
func TestZeroFrameHoldsNoRemap(t *testing.T) {
	fs := newFrameSet(128, 4)
	for f := range fs.frames {
		if fs.frames[f].interleaved() {
			t.Fatalf("fresh frame %d interleaved", f)
		}
	}
	for _, b := range []uint64{0, 3, math.MaxUint32 - 1} {
		s := fs.setOf(b)
		if _, fr := fs.findRemap(s, b); fr != nil {
			t.Fatalf("block %d found in an empty set", b)
		}
		f := fs.frameID(s, 1)
		fs.setRemap(fs.get(f), b)
		if got, fr := fs.findRemap(s, b); fr != fs.get(f) || got != f || fr.block() != b {
			t.Fatalf("block %d: findRemap = %d %p, want %d %p", b, got, fr, f, fs.get(f))
		}
		fs.clearRemap(fs.get(f))
		if _, fr := fs.findRemap(s, b); fr != nil || fs.get(f).interleaved() {
			t.Fatalf("block %d still remapped after clearRemap", b)
		}
	}
	if fs.counts != (frameCounts{}) {
		t.Fatalf("counts after set/clear: %+v", fs.counts)
	}
}

func TestFrameSetGeometry(t *testing.T) {
	fs := newFrameSet(128, 4)
	if fs.sets != 32 || fs.ways != 4 {
		t.Fatalf("sets=%d ways=%d", fs.sets, fs.ways)
	}
	// Frame IDs of a set are congruent mod sets.
	for w := 0; w < 4; w++ {
		f := fs.frameID(5, w)
		if fs.setOf(f) != 5 {
			t.Fatalf("frame %d not in set 5", f)
		}
		if fs.wayOf(f) != w {
			t.Fatalf("wayOf(%d) = %d, want %d", f, fs.wayOf(f), w)
		}
	}
}

func TestFrameSetDegenerate(t *testing.T) {
	// More ways than blocks: clamps to one set.
	fs := newFrameSet(2, 4)
	if fs.sets != 1 || fs.ways != 2 {
		t.Fatalf("degenerate: sets=%d ways=%d", fs.sets, fs.ways)
	}
	// One way is direct-mapped: a set per frame, stored in frame order.
	fs = newFrameSet(8, 1)
	if fs.ways != 1 || fs.sets != 8 || fs.at(5) != 5 {
		t.Fatalf("direct-mapped: sets=%d ways=%d at(5)=%d", fs.sets, fs.ways, fs.at(5))
	}
}

func TestFindRemap(t *testing.T) {
	fs := newFrameSet(128, 4)
	if _, fr := fs.findRemap(3, 1000); fr != nil {
		t.Fatal("found remap in empty set")
	}
	fs.setRemap(fs.get(fs.frameID(3, 2)), 1000)
	f, fr := fs.findRemap(3, 1000)
	if fr == nil || f != fs.frameID(3, 2) {
		t.Fatalf("findRemap: %d %p", f, fr)
	}
}

func TestVictimPreference(t *testing.T) {
	fs := newFrameSet(128, 4)
	s := uint64(7)
	way := func(w int) *frame { return fs.get(fs.frameID(s, w)) }
	// All empty: first way.
	v, fr := fs.victim(s)
	if fr != way(0) || v != fs.frameID(s, 0) {
		t.Fatalf("empty set victim: %d %p", v, fr)
	}
	// Fill ways 0-2 with remaps; way 3 empty -> prefer way 3.
	for w := 0; w < 3; w++ {
		fs.setRemap(way(w), uint64(1000+w))
		way(w).lastUse = uint64(10 + w)
	}
	v, fr = fs.victim(s)
	if fr != way(3) || v != fs.frameID(s, 3) {
		t.Fatalf("want empty way 3, got %d", v)
	}
	// All occupied: LRU (way 0, lastUse 10).
	fs.setRemap(way(3), 1003)
	way(3).lastUse = 50
	v, fr = fs.victim(s)
	if fr != way(0) || v != fs.frameID(s, 0) {
		t.Fatalf("want LRU way 0, got %d", v)
	}
	// Locked frames are skipped.
	way(0).locked = true
	v, fr = fs.victim(s)
	if fr != way(1) || v != fs.frameID(s, 1) {
		t.Fatalf("want way 1 after lock, got %d", v)
	}
	// Everything locked: no victim.
	for w := 0; w < 4; w++ {
		way(w).locked = true
	}
	if _, fr = fs.victim(s); fr != nil {
		t.Fatal("victim found in fully locked set")
	}
}

func TestAgingShiftsCounters(t *testing.T) {
	r := newRig(nil)
	fr := r.c.fs.get(3)
	fr.nmCtr = 40
	fr.fmCtr = 7
	r.c.ageAndUnlock()
	if fr.nmCtr != 20 || fr.fmCtr != 3 {
		t.Fatalf("after age: nm=%d fm=%d", fr.nmCtr, fr.fmCtr)
	}
}

// TestSetMajorLayout: for every associativity over several geometries, at
// places each frame id at its own storage slot, with a set's ways adjacent
// in way order, and findRemap and victim over the set-major storage agree
// with a brute-force scan over frame ids.
func TestSetMajorLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ways := range []int{1, 2, 4} {
		for _, nm := range []uint64{4, 8, 12, 20, 36, 64, 100} {
			fs := newFrameSet(nm, ways)
			seen := make([]bool, nm)
			for f := uint64(0); f < nm; f++ {
				i := fs.at(f)
				if i >= nm || seen[i] {
					t.Fatalf("ways %d, %d frames: at(%d) = %d repeats or overflows", ways, nm, f, i)
				}
				seen[i] = true
				if want := fs.setOf(f)*uint64(ways) + uint64(fs.wayOf(f)); i != want {
					t.Fatalf("ways %d, %d frames: at(%d) = %d, want set-major %d", ways, nm, f, i, want)
				}
			}
			// Random remaps (FM blocks congruent to the frame's set, a few
			// repeated across ways), locks and LRU stamps with ties.
			for f := uint64(0); f < nm; f++ {
				fr := fs.get(f)
				if rng.Intn(3) > 0 {
					fs.setRemap(fr, nm+fs.setOf(f)+uint64(rng.Intn(3))*fs.sets)
				}
				fr.locked = rng.Intn(4) == 0
				fr.lastUse = uint64(rng.Intn(4))
			}
			for s := uint64(0); s < fs.sets; s++ {
				// Brute force: the set's frame ids in ascending (way) order.
				var ids []uint64
				for f := uint64(0); f < nm; f++ {
					if fs.setOf(f) == s {
						ids = append(ids, f)
					}
				}
				for k := uint64(0); k < 3; k++ {
					b := nm + s + k*fs.sets
					want, found := uint64(0), false
					for _, f := range ids {
						if fs.get(f).remap == uint32(b+1) {
							want, found = f, true
							break
						}
					}
					if got, fr := fs.findRemap(s, b); (fr != nil) != found || got != want || (found && fr != fs.get(want)) {
						t.Fatalf("ways %d, %d frames: findRemap(%d, %d) = %d %v, brute force %d %v", ways, nm, s, b, got, fr != nil, want, found)
					}
				}
				want, found := uint64(0), false
				for _, f := range ids {
					fr := fs.get(f)
					if fr.locked {
						continue
					}
					if !fr.interleaved() {
						want, found = f, true
						break
					}
					if !found || fr.lastUse < fs.get(want).lastUse {
						want, found = f, true
					}
				}
				if got, fr := fs.victim(s); (fr != nil) != found || got != want || (found && fr != fs.get(want)) {
					t.Fatalf("ways %d, %d frames: victim(%d) = %d %v, brute force %d %v", ways, nm, s, got, fr != nil, want, found)
				}
			}
		}
	}
}

// unlockLog records the frames of Unlock events.
type unlockLog struct {
	frames, blocks []uint64
}

func (*unlockLog) Demand(uint64, mem.Location, bool) {}
func (*unlockLog) Capture(mem.Location)              {}
func (*unlockLog) Deliver(_, _ mem.Location)         {}
func (*unlockLog) Relocate(_, _ mem.Location)        {}
func (*unlockLog) Swap(_, _ mem.Location)            {}
func (*unlockLog) Lock(uint64, uint64, bool)         {}
func (l *unlockLog) Unlock(frame, block uint64) {
	l.frames = append(l.frames, frame)
	l.blocks = append(l.blocks, block)
}

// TestAgingUnlocksInFrameOrder: one aging pass over a 4-way table that
// unlocks several frames reports the unlocks in ascending frame id, not in
// set-major storage order, each with the block it pinned.
func TestAgingUnlocksInFrameOrder(t *testing.T) {
	r := newRig(nil) // 128 frames, 32 sets of 4 ways
	log := &unlockLog{}
	r.sys.AttachObserver(log)
	fs := r.c.fs
	// Frame ids in storage order 32, 1, 65, 2 (slots 1, 4, 6, 8).
	locks := []struct {
		f    uint64
		home bool
	}{{65, false}, {2, true}, {32, true}, {1, false}}
	for _, l := range locks {
		fr := fs.get(l.f)
		if !l.home {
			fr.bits = memunits.Full
			fs.setRemap(fr, rigNMBlocks+l.f)
		}
		fs.setLock(fr, true, l.home)
	}
	r.c.ageAndUnlock()
	if want := []uint64{1, 2, 32, 65}; !slices.Equal(log.frames, want) {
		t.Fatalf("unlocked frames %v, want ascending %v", log.frames, want)
	}
	if want := []uint64{rigNMBlocks + 1, 2, 32, rigNMBlocks + 65}; !slices.Equal(log.blocks, want) {
		t.Fatalf("unlocked blocks %v, want %v", log.blocks, want)
	}
	if n := fs.recount(); n.locked != 0 || n != fs.counts {
		t.Fatalf("after aging: counts %+v, recount %+v", fs.counts, n)
	}
}

func TestSaturatingBump(t *testing.T) {
	var c uint8 = 62
	max := counterMax(6)
	if max != 63 {
		t.Fatalf("counterMax(6) = %d", max)
	}
	bump(&c, max)
	bump(&c, max)
	bump(&c, max)
	if c != 63 {
		t.Fatalf("counter overflowed: %d", c)
	}
}

// Property: every frame belongs to exactly the set setOf reports, and
// frameID/wayOf round-trip.
func TestFrameIDRoundTrip(t *testing.T) {
	f := func(nBlocks uint16, waysSel uint8) bool {
		n := uint64(nBlocks%1024) + 8
		ways := []int{1, 2, 4}[waysSel%3]
		fs := newFrameSet(n, ways)
		for s := uint64(0); s < fs.sets; s++ {
			for w := 0; w < fs.ways; w++ {
				f := fs.frameID(s, w)
				if f >= uint64(len(fs.frames)) {
					return false
				}
				if fs.setOf(f) != s || fs.wayOf(f) != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryTable(t *testing.T) {
	h := newHistoryTable(64)
	if v := h.lookup(1, 2); v != 0 {
		t.Fatal("cold lookup nonzero")
	}
	h.save(histHash(0xAB, 0x12345), 0b1010)
	if v := h.lookup(0xAB, 0x12345); v != 0b1010 {
		t.Fatalf("lookup = %b", v)
	}
	// Same page, different subblock: block-granular key still matches.
	if v := h.lookup(0xAB, 0x12345+64); v != 0b1010 {
		t.Fatalf("block-granular lookup failed: %b", v)
	}
	// Different page misses (unless aliased; use a distant address).
	if v := h.lookup(0xAB, 0x9990000); v != 0 {
		t.Logf("alias hit (allowed, small table): %b", v)
	}
	// Zero vectors are not stored.
	pre := h.stores
	h.save(histHash(1, 2), 0)
	if h.stores != pre {
		t.Fatal("zero vector stored")
	}
}

// TestHistorySavedHashFindsLookup: a vector saved under a frame's stored
// histHash is found by a lookup with the (PC, address) pair it was
// computed from, from any subblock of the same large block.
func TestHistorySavedHashFindsLookup(t *testing.T) {
	f := func(pc, addr uint64, vec uint32, sub uint8) bool {
		if vec == 0 {
			vec = 1
		}
		h := newHistoryTable(1 << 12)
		h.save(histHash(pc, addr), memunits.BitVector(vec))
		sameBlock := memunits.AlignBlock(addr) + uint64(sub%memunits.SubblocksPerBlock)*memunits.SubblockSize
		return h.lookup(pc, addr) == memunits.BitVector(vec) &&
			h.lookup(pc, sameBlock) == memunits.BitVector(vec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorTrainPredict(t *testing.T) {
	p := newPredictor(128)
	if _, _, ok := p.predict(5, 0x1000); ok {
		t.Fatal("cold predictor claimed validity")
	}
	p.update(5, 0x1000, true, 3)
	inNM, way, ok := p.predict(5, 0x1000)
	if !ok || !inNM || way != 3 {
		t.Fatalf("predict: %v %d %v", inNM, way, ok)
	}
	// Same block trains one entry (block-granular index).
	inNM, way, ok = p.predict(5, 0x1000+512)
	if !ok || !inNM || way != 3 {
		t.Fatal("block-granular prediction failed")
	}
	p.update(5, 0x1000, false, 0)
	if inNM, _, _ := p.predict(5, 0x1000); inNM {
		t.Fatal("retraining failed")
	}
}

func TestBypassGovernor(t *testing.T) {
	g := newBypassGovernor(true, 0.8)
	g.window = 10
	// 9 NM / 1 FM per window: rate 0.9 > 0.8 -> bypassing turns on.
	for i := 0; i < 10; i++ {
		g.record(i != 0)
	}
	if !g.bypassing() {
		t.Fatal("governor did not engage at rate 0.9")
	}
	// 5/10: disengage.
	for i := 0; i < 10; i++ {
		g.record(i%2 == 0)
	}
	if g.bypassing() {
		t.Fatal("governor did not disengage at rate 0.5")
	}
	if g.toggles != 2 {
		t.Fatalf("toggles = %d", g.toggles)
	}
	// Disabled feature never engages.
	off := newBypassGovernor(false, 0.8)
	off.window = 4
	for i := 0; i < 20; i++ {
		off.record(true)
	}
	if off.bypassing() {
		t.Fatal("disabled governor engaged")
	}
}

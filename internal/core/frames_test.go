package core

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"silcfm/internal/memunits"
)

// TestFrameIs32Bytes pins the compact frame layout: two frames per
// 64-byte host cache line.
func TestFrameIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(frame{}); n != 32 {
		t.Fatalf("sizeof(frame) = %d, want 32", n)
	}
}

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
		if _, ok := fs.findRemap(s, b); ok {
			t.Fatalf("block %d found in an empty set", b)
		}
		f := fs.frameID(s, 1)
		fs.setRemap(f, b)
		if got, ok := fs.findRemap(s, b); !ok || got != f || fs.frames[f].block() != b {
			t.Fatalf("block %d: findRemap = %d %v, block() = %d", b, got, ok, fs.frames[f].block())
		}
		fs.clearRemap(f)
		if _, ok := fs.findRemap(s, b); ok || fs.frames[f].interleaved() {
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
	// Zero ways defaults to direct-mapped.
	fs = newFrameSet(8, 0)
	if fs.ways != 1 || fs.sets != 8 {
		t.Fatalf("zero ways: sets=%d ways=%d", fs.sets, fs.ways)
	}
}

func TestFindRemap(t *testing.T) {
	fs := newFrameSet(128, 4)
	if _, ok := fs.findRemap(3, 1000); ok {
		t.Fatal("found remap in empty set")
	}
	fs.setRemap(fs.frameID(3, 2), 1000)
	f, ok := fs.findRemap(3, 1000)
	if !ok || f != fs.frameID(3, 2) {
		t.Fatalf("findRemap: %d %v", f, ok)
	}
}

func TestVictimPreference(t *testing.T) {
	fs := newFrameSet(128, 4)
	s := uint64(7)
	// All empty: first way.
	v, ok := fs.victim(s)
	if !ok || v != fs.frameID(s, 0) {
		t.Fatalf("empty set victim: %d %v", v, ok)
	}
	// Fill ways 0-2 with remaps; way 3 empty -> prefer way 3.
	for w := 0; w < 3; w++ {
		fs.setRemap(fs.frameID(s, w), uint64(1000+w))
		fs.frames[fs.frameID(s, w)].lastUse = uint64(10 + w)
	}
	v, ok = fs.victim(s)
	if !ok || v != fs.frameID(s, 3) {
		t.Fatalf("want empty way 3, got %d", v)
	}
	// All occupied: LRU (way 0, lastUse 10).
	fs.setRemap(fs.frameID(s, 3), 1003)
	fs.frames[fs.frameID(s, 3)].lastUse = 50
	v, ok = fs.victim(s)
	if !ok || v != fs.frameID(s, 0) {
		t.Fatalf("want LRU way 0, got %d", v)
	}
	// Locked frames are skipped.
	fs.frames[fs.frameID(s, 0)].locked = true
	v, ok = fs.victim(s)
	if !ok || v != fs.frameID(s, 1) {
		t.Fatalf("want way 1 after lock, got %d", v)
	}
	// Everything locked: no victim.
	for w := 0; w < 4; w++ {
		fs.frames[fs.frameID(s, w)].locked = true
	}
	if _, ok = fs.victim(s); ok {
		t.Fatal("victim found in fully locked set")
	}
}

func TestAgingShiftsCounters(t *testing.T) {
	fs := newFrameSet(8, 1)
	fs.frames[3].nmCtr = 40
	fs.frames[3].fmCtr = 7
	fs.age()
	if fs.frames[3].nmCtr != 20 || fs.frames[3].fmCtr != 3 {
		t.Fatalf("after age: nm=%d fm=%d", fs.frames[3].nmCtr, fs.frames[3].fmCtr)
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

package core

import (
	"silcfm/internal/memunits"
)

// frame is the per-NM-large-block metadata of Figure 4: remap entry, bit
// vector, NM/FM activity counters, lock and LRU state, in 32 bytes (two
// frames per host cache line). Frame f is the home of flat NM block f; set
// membership is f mod sets. The zero frame holds no interleaved block.
type frame struct {
	// remap is the flat FM block interleaved here plus one, or 0 for none
	// (config.Validate bounds block numbers below 2^32-1).
	remap uint32
	// bits: bit i set means subblock i of this frame holds remap's
	// subblock i, and the home block's subblock i sits at remap's FM home.
	bits memunits.BitVector
	// locked pins the frame's current contents: when lockHome is false the
	// remapped FM block is fully resident (bits == Full); when true the
	// home block is pinned and no interleaving is allowed.
	locked   bool
	lockHome bool
	nmCtr    uint8  // accesses to the home block (aging, 6-bit)
	fmCtr    uint8  // accesses to the remapped FM block
	lastUse  uint64 // engine cycle of last access, for LRU
	// hist is histHash of the first swapped-in subblock's PC and address,
	// the bit vector history table's index (§III-A).
	hist uint64
}

// interleaved reports whether an FM block is interleaved in the frame.
func (fr *frame) interleaved() bool { return fr.remap != 0 }

// block returns the interleaved FM block; the frame must be interleaved.
func (fr *frame) block() uint64 { return uint64(fr.remap) - 1 }

// counterMax is the aging counter ceiling of a bits-wide counter (§III-B:
// 6 bits; config.Validate bounds bits to the frame's 8).
func counterMax(bits int) uint8 { return uint8(1<<bits - 1) }

// bump increments a saturating counter.
func bump(c *uint8, max uint8) {
	if *c < max {
		*c++
	}
}

// frameSet provides set/way geometry over the frame array.
type frameSet struct {
	frames []frame
	sets   uint64
	ways   int

	// remapW mirrors frames[*].remap in per-set-contiguous layout
	// (remapW[s*ways+w] == frames[frameID(s,w)].remap). findRemap runs
	// once per LLC miss, and the ways of a set sit sets*sizeof(frame)
	// bytes apart in the frames array — a cache miss per way probed; the
	// mirror packs a set's entries into one line. All remap writes go
	// through putRemap to keep the two in sync.
	remapW []uint32

	// counts are the frame totals Gauges reports every epoch. Every write
	// to a frame's remap, bits, locked or lockHome goes through the
	// mutators below, which keep them current, so no epoch walks the
	// frame array; recount is the reference.
	counts frameCounts
}

// frameCounts totals the frame state: locked frames, those of them
// pinning their home block, interleaved frames (remap set), and the
// resident subblocks of interleaved frames.
type frameCounts struct {
	locked, lockedHome, interleaved, resident int
}

func newFrameSet(nmBlocks uint64, ways int) *frameSet {
	if ways <= 0 {
		ways = 1
	}
	sets := nmBlocks / uint64(ways)
	if sets == 0 {
		sets = 1
		ways = int(nmBlocks)
	}
	return &frameSet{
		frames: make([]frame, nmBlocks),
		sets:   sets,
		ways:   ways,
		remapW: make([]uint32, nmBlocks),
	}
}

// setRemap interleaves flat FM block b into frame f.
func (fs *frameSet) setRemap(f, b uint64) { fs.putRemap(f, uint32(b+1)) }

// clearRemap leaves frame f with no interleaved block.
func (fs *frameSet) clearRemap(f uint64) { fs.putRemap(f, 0) }

// putRemap updates frame f's encoded remap entry and its mirror slot.
func (fs *frameSet) putRemap(f uint64, r uint32) {
	fr := &fs.frames[f]
	switch {
	case !fr.interleaved() && r != 0:
		fs.counts.interleaved++
		fs.counts.resident += fr.bits.Count()
	case fr.interleaved() && r == 0:
		fs.counts.interleaved--
		fs.counts.resident -= fr.bits.Count()
	}
	fr.remap = r
	fs.remapW[(f%fs.sets)*uint64(fs.ways)+f/fs.sets] = r
}

// setBit marks subblock idx of frame f resident.
func (fs *frameSet) setBit(f uint64, idx uint) {
	fr := &fs.frames[f]
	if fr.interleaved() && !fr.bits.Test(idx) {
		fs.counts.resident++
	}
	fr.bits.Set(idx)
}

// clearBit unmarks subblock idx of frame f.
func (fs *frameSet) clearBit(f uint64, idx uint) {
	fr := &fs.frames[f]
	if fr.interleaved() && fr.bits.Test(idx) {
		fs.counts.resident--
	}
	fr.bits.Clear(idx)
}

// clearBits empties frame f's bit vector.
func (fs *frameSet) clearBits(f uint64) {
	fr := &fs.frames[f]
	if fr.interleaved() {
		fs.counts.resident -= fr.bits.Count()
	}
	fr.bits = 0
}

// setLock sets frame f's lock state.
func (fs *frameSet) setLock(f uint64, locked, home bool) {
	fr := &fs.frames[f]
	if fr.locked {
		fs.counts.locked--
		if fr.lockHome {
			fs.counts.lockedHome--
		}
	}
	if locked {
		fs.counts.locked++
		if home {
			fs.counts.lockedHome++
		}
	}
	fr.locked, fr.lockHome = locked, home
}

// recount totals the frame state by walking every frame.
func (fs *frameSet) recount() frameCounts {
	var n frameCounts
	for i := range fs.frames {
		fr := &fs.frames[i]
		if fr.locked {
			n.locked++
			if fr.lockHome {
				n.lockedHome++
			}
		}
		if fr.interleaved() {
			n.interleaved++
			n.resident += fr.bits.Count()
		}
	}
	return n
}

// setOf returns the congruence set of a flat block (NM or FM).
func (fs *frameSet) setOf(b uint64) uint64 { return b % fs.sets }

// frameID returns the frame index of way w in set s.
func (fs *frameSet) frameID(s uint64, w int) uint64 { return s + uint64(w)*fs.sets }

// wayOf returns the way index of frame f within its set.
func (fs *frameSet) wayOf(f uint64) int { return int(f / fs.sets) }

// findRemap scans set s for the frame interleaving block b. Returns the
// frame index and true, or 0 and false.
func (fs *frameSet) findRemap(s, b uint64) (uint64, bool) {
	base, want := s*uint64(fs.ways), uint32(b+1)
	for w, r := range fs.remapW[base : base+uint64(fs.ways)] {
		if r == want {
			return fs.frameID(s, w), true
		}
	}
	return 0, false
}

// victim picks the frame of set s to host a new interleaved block: an
// unlocked frame without a remap if one exists, else the least recently
// used unlocked frame. ok is false when every way is locked (§III-C: locked
// blocks make the rest of the set's FM blocks unswappable; associativity
// reduces how often this happens).
func (fs *frameSet) victim(s uint64) (uint64, bool) {
	best := uint64(0)
	found := false
	var bestUse uint64
	for w := 0; w < fs.ways; w++ {
		f := fs.frameID(s, w)
		fr := &fs.frames[f]
		if fr.locked {
			continue
		}
		if !fr.interleaved() {
			return f, true
		}
		if !found || fr.lastUse < bestUse {
			best, bestUse, found = f, fr.lastUse, true
		}
	}
	return best, found
}

// age right-shifts every activity counter (the paper's aging at 1 M-access
// boundaries; unlock decisions are taken by the controller afterwards).
func (fs *frameSet) age() {
	for i := range fs.frames {
		fs.frames[i].nmCtr >>= 1
		fs.frames[i].fmCtr >>= 1
	}
}

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

// frameSet is the frame table with its set/way geometry. Frames are stored
// set-major: frame f, way f/sets of set f mod sets, lives at frames[at(f)],
// so the ways findRemap and victim scan sit in adjacent records.
type frameSet struct {
	frames []frame
	sets   uint64
	ways   int

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

// meanResidency returns the average number of resident subblocks per
// interleaved frame (0 when nothing is interleaved).
func (n frameCounts) meanResidency() float64 {
	if n.interleaved == 0 {
		return 0
	}
	return float64(n.resident) / float64(n.interleaved)
}

// newFrameSet builds the frame table of nmBlocks frames. Ways clamp to the
// frame count; config.Validate requires the clamped ways (1, 2 or 4) to
// divide nmBlocks, which makes at a bijection.
func newFrameSet(nmBlocks uint64, ways int) *frameSet {
	ways = int(min(uint64(ways), nmBlocks))
	return &frameSet{frames: make([]frame, nmBlocks), sets: nmBlocks / uint64(ways), ways: ways}
}

// at returns the storage index of frame f.
func (fs *frameSet) at(f uint64) uint64 { return f%fs.sets*uint64(fs.ways) + f/fs.sets }

// frameID returns the id of way w in set s.
func (fs *frameSet) frameID(s uint64, w int) uint64 { return s + uint64(w)*fs.sets }

// wayOf returns the way of frame f within its set.
func (fs *frameSet) wayOf(f uint64) int { return int(f / fs.sets) }

// setOf returns the congruence set of a flat block (NM or FM).
func (fs *frameSet) setOf(b uint64) uint64 { return b % fs.sets }

// set returns the ways of set s.
func (fs *frameSet) set(s uint64) []frame {
	base := s * uint64(fs.ways)
	return fs.frames[base : base+uint64(fs.ways)]
}

// lookup returns the frame holding flat block b's placement state and its
// id: an NM block's home frame, or the frame interleaving an FM block (fr
// nil when none does).
func (fs *frameSet) lookup(b uint64) (f uint64, fr *frame) {
	if b < uint64(len(fs.frames)) {
		return b, &fs.frames[fs.at(b)]
	}
	return fs.findRemap(fs.setOf(b), b)
}

// swapped reports whether subblock idx of a block looked up in frame fr (nil
// for none) sits at the other block's home: an NM block's subblock swapped
// out to the interleaved block's FM home, or an FM block's subblock swapped
// into the frame.
func (fr *frame) swapped(idx uint) bool { return fr != nil && fr.interleaved() && fr.bits.Test(idx) }

// findRemap scans set s for the frame interleaving block b; fr is nil when
// none does.
func (fs *frameSet) findRemap(s, b uint64) (f uint64, fr *frame) {
	want := uint32(b + 1)
	ways := fs.set(s)
	for w := range ways {
		if ways[w].remap == want {
			return fs.frameID(s, w), &ways[w]
		}
	}
	return 0, nil
}

// victim picks the frame of set s to host a new interleaved block: an
// unlocked frame without a remap if one exists, else the least recently
// used unlocked frame. fr is nil when every way is locked (§III-C: locked
// blocks make the rest of the set's FM blocks unswappable; associativity
// reduces how often this happens).
func (fs *frameSet) victim(s uint64) (f uint64, fr *frame) {
	best := -1
	ways := fs.set(s)
	for w := range ways {
		if ways[w].locked {
			continue
		}
		if !ways[w].interleaved() {
			return fs.frameID(s, w), &ways[w]
		}
		if best < 0 || ways[w].lastUse < ways[best].lastUse {
			best = w
		}
	}
	if best < 0 {
		return 0, nil
	}
	return fs.frameID(s, best), &ways[best]
}

// setRemap interleaves flat FM block b into frame fr.
func (fs *frameSet) setRemap(fr *frame, b uint64) { fs.putRemap(fr, uint32(b+1)) }

// clearRemap leaves frame fr with no interleaved block.
func (fs *frameSet) clearRemap(fr *frame) { fs.putRemap(fr, 0) }

// putRemap updates frame fr's encoded remap entry.
func (fs *frameSet) putRemap(fr *frame, r uint32) {
	switch {
	case !fr.interleaved() && r != 0:
		fs.counts.interleaved++
		fs.counts.resident += fr.bits.Count()
	case fr.interleaved() && r == 0:
		fs.counts.interleaved--
		fs.counts.resident -= fr.bits.Count()
	}
	fr.remap = r
}

// setBit marks subblock idx of frame fr resident.
func (fs *frameSet) setBit(fr *frame, idx uint) {
	if fr.interleaved() && !fr.bits.Test(idx) {
		fs.counts.resident++
	}
	fr.bits.Set(idx)
}

// clearBit unmarks subblock idx of frame fr.
func (fs *frameSet) clearBit(fr *frame, idx uint) {
	if fr.interleaved() && fr.bits.Test(idx) {
		fs.counts.resident--
	}
	fr.bits.Clear(idx)
}

// clearBits empties frame fr's bit vector.
func (fs *frameSet) clearBits(fr *frame) {
	if fr.interleaved() {
		fs.counts.resident -= fr.bits.Count()
	}
	fr.bits = 0
}

// setLock sets frame fr's lock state.
func (fs *frameSet) setLock(fr *frame, locked, home bool) {
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

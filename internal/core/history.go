package core

import "silcfm/internal/memunits"

// historyTable is the bit vector history table of §III-A: when an
// interleaved block is restored to FM, its residency bit vector is saved,
// keyed by the PC and address of the first subblock that was swapped in.
// When the same (PC, address) combination triggers a new swap-in, the saved
// vector is replayed to fetch the previously useful subblocks together,
// converting CAMEO-style single-line fetches into spatially batched ones.
type historyTable struct {
	tags []uint32
	vecs []memunits.BitVector
	mask uint64

	stores, hits, lookups uint64
	used                  int // entries holding a saved vector
}

// newHistoryTable builds a table with entries rounded down to a power of
// two (minimum 1).
func newHistoryTable(entries int) *historyTable {
	n := 1
	for n*2 <= entries {
		n *= 2
	}
	return &historyTable{
		tags: make([]uint32, n),
		vecs: make([]memunits.BitVector, n),
		mask: uint64(n - 1),
	}
}

// histHash hashes the PC and the first swapped-in subblock's large-block
// address; block granularity lets a recurring (PC, page) pair match even
// when the visit starts at a different subblock. The table's index and tag
// derive from the hash alone, so a frame keeps it in place of the pair.
func histHash(pc, addr uint64) uint64 { return (pc ^ (addr >> 11)) * 0x9e3779b97f4a7c15 }

// key returns the table index and tag of hash x.
func (h *historyTable) key(x uint64) (idx uint64, tag uint32) {
	return x & h.mask, uint32(x>>40) | 1 // non-zero tag
}

// save records a bit vector at restore time under the frame's stored
// histHash.
func (h *historyTable) save(x uint64, vec memunits.BitVector) {
	if vec == 0 {
		return
	}
	idx, tag := h.key(x)
	if h.tags[idx] == 0 {
		h.used++
	}
	h.tags[idx] = tag
	h.vecs[idx] = vec
	h.stores++
}

// lookup returns the saved vector for (pc, addr), or 0.
func (h *historyTable) lookup(pc, addr uint64) memunits.BitVector {
	h.lookups++
	idx, tag := h.key(histHash(pc, addr))
	if h.tags[idx] != tag {
		return 0
	}
	h.hits++
	return h.vecs[idx]
}

// predictor is the 4K-entry way/location predictor of §III-F, indexed by
// PC xor data-address offset. Each entry speculates the matching way and
// whether the data lives in NM or FM; a correct FM speculation lets the FM
// request launch in parallel with the remap-entry fetch, hiding the NM
// metadata latency.
type predictor struct {
	entries []predEntry
	mask    uint64
}

type predEntry struct {
	valid bool
	inNM  bool
	way   uint8
}

func newPredictor(entries int) *predictor {
	n := 1
	for n*2 <= entries {
		n *= 2
	}
	return &predictor{entries: make([]predEntry, n), mask: uint64(n - 1)}
}

// index hashes the PC with the large-block address: residency decisions
// (remap, lock) are block-granular, so block-level entries train faster and
// stay accurate for fully resident or absent blocks.
func (p *predictor) index(pc, addr uint64) uint64 {
	return (pc ^ (addr >> 11)) & p.mask
}

// check reports whether the entry for (pc, addr) speculated the access's
// true location (inNM, and the way when in NM), then trains the entry with
// it. A cold entry mispredicts: the serialized path is taken.
func (p *predictor) check(pc, addr uint64, inNM bool, way uint8) bool {
	e := &p.entries[p.index(pc, addr)]
	hit := e.valid && e.inNM == inNM && (!inNM || e.way == way)
	*e = predEntry{valid: true, inNM: inNM, way: way}
	return hit
}

// Package vm implements the virtual-to-physical address translation the
// evaluation needs (§IV-A): 2 KB pages, per-core private address spaces
// (multiprogrammed rate mode must not share physical pages across
// instances), and first-touch frame allocation under pluggable placement
// policies:
//
//   - PolicyInterleaved: frames handed out round-robin across the whole
//     flat NM+FM space (hardware schemes' OS-neutral layout).
//   - PolicyRandom:      frames chosen uniformly at random (the paper's
//     "Random" static-placement scheme, and the stacked baseline of Fig. 6).
//   - PolicyFMFirst:     frames allocated from FM only (the no-NM baseline,
//     and HMA's initial layout before epoch migration).
//
// The page table is sparse: 512-page chunks created on first touch, found
// through a small direct-mapped chunk cache, so an address space costs what
// its run touches rather than what the machine could hold.
package vm

import (
	"fmt"
	"math/rand"

	"silcfm/internal/memunits"
)

// Policy selects the first-touch frame allocation order.
type Policy int

const (
	PolicyInterleaved Policy = iota
	PolicyRandom
	PolicyFMFirst
)

func (p Policy) String() string {
	switch p {
	case PolicyInterleaved:
		return "interleaved"
	case PolicyRandom:
		return "random"
	default:
		return "fm-first"
	}
}

// AddressSpace allocates physical frames for virtual pages on first touch.
// One AddressSpace serves all cores; virtual addresses are made private per
// core by the caller embedding the core ID in high VA bits (see CoreVA).
type AddressSpace struct {
	nmFrames     uint64 // frames in [0, nmFrames) live in NM
	total        uint64 // total frames (NM + FM)
	policy       Policy
	pagesTouched uint64 // frames handed out

	// The n-th frame handed out is base + (n*stride mod count): a stride
	// walk over the frame range [base, base+count), with off = n*stride mod
	// count kept incrementally. PolicyRandom has no closed form and keeps
	// its shuffled order in randOrder instead.
	base, count, stride, off uint64
	randOrder                []uint32

	// chunks is the page table: virtual chunk (vpage >> chunkShift) ->
	// the chunk's frames, each stored as frame+1 so a zero entry is an
	// unmapped page. Only chunks a run touches exist, and any VA works
	// (replay traces use arbitrary ones).
	chunks map[uint64]*chunk
	// cache is a direct-mapped cache over chunks that keeps the
	// per-reference hot path off the map. A chunk never moves once
	// created, so entries need no invalidation and the cache cannot
	// change results.
	cache [chunkCacheSize]chunkRef
}

// chunkShift is log2 of the pages per page-table chunk.
const chunkShift = 9

// chunk maps 512 consecutive virtual pages (1 MiB of VA) to frame+1.
type chunk [1 << chunkShift]uint32

type chunkRef struct {
	vchunk uint64
	c      *chunk
}

// chunkCacheSize is the chunk-cache size (power of two). Core c's chunks
// are offset by c*chunkCoreStride slots, so 16 cores each get 32 slots
// without conflicts: 32 MiB of VA per core, above the largest workload
// footprint (15360 pages, 30 MiB).
const (
	chunkCacheSize  = 512
	chunkCoreStride = chunkCacheSize / 16
)

// coreShift is the VA bit where CoreVA places the core ID; pageShift is
// log2 of the 2 KB page.
const (
	coreShift = 44
	pageShift = 11
)

// NewAddressSpace builds an allocator over nmBytes of NM followed by
// fmBytes of FM (NM occupies the lower physical addresses, §III). The
// machine must have fewer than 2^32 frames (config.Machine.Validate), so
// frame+1 fits a uint32.
func NewAddressSpace(nmBytes, fmBytes uint64, policy Policy, seed int64) *AddressSpace {
	nmFrames := memunits.BlocksIn(nmBytes)
	total := nmFrames + memunits.BlocksIn(fmBytes)
	a := &AddressSpace{
		nmFrames: nmFrames,
		total:    total,
		policy:   policy,
		chunks:   make(map[uint64]*chunk),
	}
	switch policy {
	case PolicyFMFirst:
		a.base, a.count, a.stride = nmFrames, total-nmFrames, 1
	case PolicyRandom:
		a.count = total
		a.randOrder = make([]uint32, total)
		for f := range a.randOrder {
			a.randOrder[f] = uint32(f)
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(a.randOrder), func(i, j int) {
			a.randOrder[i], a.randOrder[j] = a.randOrder[j], a.randOrder[i]
		})
	default: // interleaved: spread consecutive allocations across the space
		// A stride walk with a stride coprime to the frame count visits
		// every frame exactly once while giving early allocations a uniform
		// NM/FM mix.
		a.count = total
		a.stride = total*2/5 | 1
		for gcd(a.stride, total) != 1 {
			a.stride += 2
		}
	}
	return a
}

// CoreVA embeds a core ID into a virtual address so multiprogrammed
// instances never share pages.
func CoreVA(core int, va uint64) uint64 {
	return uint64(core)<<coreShift | va&(1<<coreShift-1)
}

// chunkOf returns the page-table chunk covering vchunk, creating it on
// first touch.
func (a *AddressSpace) chunkOf(vchunk uint64) *chunk {
	core := vchunk >> (coreShift - pageShift - chunkShift)
	e := &a.cache[(vchunk+core*chunkCoreStride)&(chunkCacheSize-1)]
	if e.c != nil && e.vchunk == vchunk {
		return e.c
	}
	c := a.chunks[vchunk]
	if c == nil {
		c = new(chunk)
		a.chunks[vchunk] = c
	}
	*e = chunkRef{vchunk: vchunk, c: c}
	return c
}

// Translate maps a virtual address to a flat physical address, allocating a
// frame on first touch. It returns an error when physical memory is
// exhausted.
func (a *AddressSpace) Translate(va uint64) (uint64, error) {
	vpage := va >> pageShift
	e := &a.chunkOf(vpage >> chunkShift)[vpage&(1<<chunkShift-1)]
	if *e == 0 {
		if a.pagesTouched >= a.count {
			return 0, fmt.Errorf("vm: out of physical memory (%d frames)", a.total)
		}
		*e = uint32(a.nextFrame() + 1)
		a.pagesTouched++
	}
	return uint64(*e-1)<<pageShift | va&(memunits.BlockSize-1), nil
}

// nextFrame returns the next frame of the policy's hand-out order; the
// caller has checked that one remains.
func (a *AddressSpace) nextFrame() uint64 {
	if a.randOrder != nil {
		return uint64(a.randOrder[a.pagesTouched])
	}
	f := a.base + a.off
	if a.off += a.stride; a.off >= a.count { // stride <= count
		a.off -= a.count
	}
	return f
}

// MustTranslate is Translate for callers that have pre-sized memory.
func (a *AddressSpace) MustTranslate(va uint64) uint64 {
	pa, err := a.Translate(va)
	if err != nil {
		panic(err)
	}
	return pa
}

// PagesTouched returns the number of allocated pages (Table III footprint).
func (a *AddressSpace) PagesTouched() uint64 { return a.pagesTouched }

// InNM reports whether physical address pa falls in the NM range.
func (a *AddressSpace) InNM(pa uint64) bool { return pa>>11 < a.nmFrames }

// TotalFrames returns the total frame count.
func (a *AddressSpace) TotalFrames() uint64 { return a.total }

// FramesFree returns how many frames remain unallocated.
func (a *AddressSpace) FramesFree() uint64 { return a.count - a.pagesTouched }

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

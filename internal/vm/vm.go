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
	nmFrames     uint64            // frames in [0, nmFrames) live in NM
	total        uint64            // total frames (NM + FM)
	pageTable    map[uint64]uint64 // vpage -> pframe
	policy       Policy
	pagesTouched uint64 // frames handed out

	// The n-th frame handed out is base + (n*stride mod count): a stride
	// walk over the frame range [base, base+count), with off = n*stride mod
	// count kept incrementally. PolicyRandom has no closed form and keeps
	// its shuffled order in randOrder instead.
	base, count, stride, off uint64
	randOrder                []uint64

	// tlb is a direct-mapped software cache over pageTable. A translation
	// is immutable once allocated (first touch, never remapped), so hits
	// need no invalidation and the cache cannot change results — it only
	// keeps the per-reference hot path off the map.
	tlb []tlbEntry
}

// tlbSize is the direct-mapped translation-cache size (power of two).
// Sized to cover the largest bench footprint (~15k pages for mcf at the
// suite's 1/8 scale) without conflict misses; at 24 B/entry the table is
// well under 1 MiB.
const tlbSize = 32768

// tlbCoreStride spreads cores across the translation cache: CoreVA puts
// the core above bit coreShift, far above the index bits, so without it
// one VA on every core would share a slot. Core c's pages are offset by
// c*tlbCoreStride slots, giving 16 cores disjoint 2048-page regions.
const tlbCoreStride = tlbSize / 16

// coreShift is the VA bit where CoreVA places the core ID; pageShift is
// log2 of the 2 KB page.
const (
	coreShift = 44
	pageShift = 11
)

type tlbEntry struct {
	vpage uint64
	pf    uint64
	ok    bool
}

// NewAddressSpace builds an allocator over nmBytes of NM followed by
// fmBytes of FM (NM occupies the lower physical addresses, §III).
func NewAddressSpace(nmBytes, fmBytes uint64, policy Policy, seed int64) *AddressSpace {
	nmFrames := memunits.BlocksIn(nmBytes)
	total := nmFrames + memunits.BlocksIn(fmBytes)
	a := &AddressSpace{
		nmFrames:  nmFrames,
		total:     total,
		pageTable: make(map[uint64]uint64),
		policy:    policy,
		tlb:       make([]tlbEntry, tlbSize),
	}
	switch policy {
	case PolicyFMFirst:
		a.base, a.count, a.stride = nmFrames, total-nmFrames, 1
	case PolicyRandom:
		a.count = total
		a.randOrder = make([]uint64, total)
		for f := range a.randOrder {
			a.randOrder[f] = uint64(f)
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

// tlbSlot returns the translation-cache index of vpage, with the core bits
// folded in (see tlbCoreStride).
func tlbSlot(vpage uint64) uint64 {
	core := vpage >> (coreShift - pageShift)
	return (vpage ^ core*tlbCoreStride) & (tlbSize - 1)
}

// Translate maps a virtual address to a flat physical address, allocating a
// frame on first touch. It returns an error when physical memory is
// exhausted.
func (a *AddressSpace) Translate(va uint64) (uint64, error) {
	vpage := va >> pageShift
	e := &a.tlb[tlbSlot(vpage)]
	if e.ok && e.vpage == vpage {
		return e.pf<<pageShift | va&(memunits.BlockSize-1), nil
	}
	pf, ok := a.pageTable[vpage]
	if !ok {
		if a.pagesTouched >= a.count {
			return 0, fmt.Errorf("vm: out of physical memory (%d frames)", a.total)
		}
		pf = a.nextFrame()
		a.pageTable[vpage] = pf
		a.pagesTouched++
	}
	*e = tlbEntry{vpage: vpage, pf: pf, ok: true}
	return pf<<pageShift | va&(memunits.BlockSize-1), nil
}

// nextFrame returns the next frame of the policy's hand-out order; the
// caller has checked that one remains.
func (a *AddressSpace) nextFrame() uint64 {
	if a.randOrder != nil {
		return a.randOrder[a.pagesTouched]
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

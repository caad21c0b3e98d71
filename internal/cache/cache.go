// Package cache implements the on-chip SRAM cache hierarchy of Table II:
// per-core private L1 data caches and one shared L2 last-level cache,
// set-associative with true-LRU replacement and write-back/write-allocate
// semantics. The hierarchy's job in this reproduction is to filter the
// reference stream into the LLC-miss stream that drives the flat-memory
// schemes; Access reports each outcome and victim, and the per-core cpu
// counters account MPKI from them (Table III).
//
// Timing is additive hit latency; SRAM port contention is not modeled, as
// in the paper's evaluation (which reports only cache latencies).
package cache

import (
	"fmt"
	"math/bits"

	"silcfm/internal/config"
)

// Cache is a single set-associative cache level of at most 16 ways. Each
// set keeps its ways' tags contiguously as 32-bit words (tag+1; 0 =
// invalid), so the per-access way scan is one equality compare over 64
// bytes at 16 ways. Recency is a per-set stack of 4-bit way indices packed
// into one uint64, most recently used way in the low nibble: a hit or fill
// rotates its way to the front, and the true-LRU victim is the nibble at
// depth ways-1. The stack always holds a permutation of all 16 nibbles;
// the top ways positions are a permutation of the set's ways and the
// positions beyond never move. Dirty bits are a per-set 16-bit mask.
type Cache struct {
	name     string
	sets     uint64
	ways     int
	lineSize uint64
	latency  uint64
	tags     []uint32 // sets*ways, row-major by set; tag+1, 0 = invalid
	stack    []uint64 // per-set recency stack, MRU way in the low nibble
	dirty    []uint16 // per-set dirty mask, bit w = way w

	// lineShift/setShift/setMask are the shift-and-mask forms of the
	// lineSize/sets divisions (both enforced powers of two): lookup() runs
	// once per reference per level, and hardware divides dominate it
	// otherwise.
	lineShift uint
	setShift  uint
	setMask   uint64
}

// identityStack is the initial recency stack: nibble k holds way k.
const identityStack uint64 = 0xFEDCBA9876543210

// nibbleOnes has a 1 in every nibble; nibbleHighs the high bit of each.
const (
	nibbleOnes  uint64 = 0x1111111111111111
	nibbleHighs uint64 = 0x8888888888888888
)

// New builds a cache from its configuration. It panics on a geometry the
// packed layout cannot represent; config.Machine.Validate rejects those
// first.
func New(name string, cfg config.CacheConfig) *Cache {
	if cfg.Ways < 1 || cfg.Ways > 16 {
		panic(fmt.Sprintf("cache %s: %d ways outside 1..16", name, cfg.Ways))
	}
	sets := cfg.Size / (cfg.LineSize * uint64(cfg.Ways))
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	if cfg.LineSize == 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", name, cfg.LineSize))
	}
	c := &Cache{
		name:      name,
		sets:      sets,
		ways:      cfg.Ways,
		lineSize:  cfg.LineSize,
		latency:   cfg.LatencyCyc,
		tags:      make([]uint32, sets*uint64(cfg.Ways)),
		stack:     make([]uint64, sets),
		dirty:     make([]uint16, sets),
		lineShift: uint(bits.TrailingZeros64(cfg.LineSize)),
		setShift:  uint(bits.TrailingZeros64(sets)),
		setMask:   sets - 1,
	}
	for i := range c.stack {
		c.stack[i] = identityStack
	}
	return c
}

// Latency returns the hit latency in CPU cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() uint64 { return c.sets }

// lookup returns addr's set and its tag word (tag+1), widened to 64 bits
// so that a tag too large for the stored 32-bit word matches no way and
// reaches the fill path, which rejects it.
func (c *Cache) lookup(addr uint64) (set, want uint64) {
	blk := addr >> c.lineShift
	return blk & c.setMask, blk>>c.setShift + 1
}

// setTags returns the tag words of set.
func (c *Cache) setTags(set uint64) []uint32 {
	base := set * uint64(c.ways)
	return c.tags[base : base+uint64(c.ways)]
}

// touch moves way w to the front of recency stack st. The stack holds each
// nibble value once, so the lowest zero nibble of st^(w*nibbleOnes) is w's
// depth (the borrow trick is exact for the lowest zero nibble).
func touch(st uint64, w int) uint64 {
	x := st ^ uint64(w)*nibbleOnes
	shift := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) &^ 3
	below := st & (1<<shift - 1)
	above := st &^ (1<<(shift+4) - 1)
	return above | below<<4 | uint64(w)
}

// Access performs a read or write lookup. On a miss it allocates the line,
// evicting the first invalid way, else the LRU way. It returns hit, and for
// misses the evicted victim: victimAddr/victimDirty describe a valid victim
// line that must be written back if dirty.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victimAddr uint64, victimValid, victimDirty bool) {
	set, want := c.lookup(addr)
	tags := c.setTags(set)
	st := c.stack[set]

	// Lookup: one scan over the set's tag words, which also notes the
	// first invalid way for victim selection. The recency stack is loaded
	// alongside, independent of the scan, and written only when the hit
	// way was not already the most recent.
	victim := -1
	for w, t := range tags {
		if uint64(t) == want {
			if int(st&0xF) != w {
				c.stack[set] = touch(st, w)
			}
			if write {
				c.dirty[set] |= 1 << w
			}
			return true, 0, false, false
		}
		if t == 0 && victim < 0 {
			victim = w
		}
	}

	if victim < 0 {
		victim = int(st>>(4*uint(c.ways-1))) & 0xF
		victimValid = true
		victimDirty = c.dirty[set]>>victim&1 != 0
		victimAddr = ((uint64(tags[victim]-1)<<c.setShift | set) << c.lineShift)
	}
	if want > 1<<32-1 {
		panic(fmt.Sprintf("cache %s: address %#x overflows the 32-bit tag", c.name, addr))
	}
	tags[victim] = uint32(want)
	bit := uint16(1) << victim
	if write {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
	}
	c.stack[set] = touch(st, victim)
	return false, victimAddr, victimValid, victimDirty
}

// Probe reports whether addr is present without updating state.
func (c *Cache) Probe(addr uint64) bool {
	set, want := c.lookup(addr)
	for _, t := range c.setTags(set) {
		if uint64(t) == want {
			return true
		}
	}
	return false
}

// Outcome describes where a hierarchy access was satisfied.
type Outcome int

const (
	HitL1 Outcome = iota
	HitL2
	MissLLC
)

func (o Outcome) String() string {
	switch o {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	default:
		return "memory"
	}
}

// Hierarchy ties per-core L1s to a shared L2 (the LLC). Physical addresses
// index both levels (the paper translates before the hierarchy; we do the
// same so multiprogrammed instances contend realistically in the shared
// LLC).
type Hierarchy struct {
	L1s []*Cache
	L2  *Cache
	// Writeback is invoked for dirty LLC victims; the memory system turns
	// it into an FM/NM write. Set by the owner before use.
	Writeback func(addr uint64)
}

// NewHierarchy builds the Table II hierarchy for n cores.
func NewHierarchy(n int, l1 config.CacheConfig, l2 config.CacheConfig) *Hierarchy {
	h := &Hierarchy{L2: New("L2", l2)}
	for i := 0; i < n; i++ {
		h.L1s = append(h.L1s, New(fmt.Sprintf("L1d%d", i), l1))
	}
	return h
}

// Access runs one reference from core through the hierarchy. It returns the
// outcome and the accumulated SRAM latency in CPU cycles. LLC misses still
// pay the full L1+L2 lookup latency before memory is consulted.
func (h *Hierarchy) Access(core int, addr uint64, write bool) (Outcome, uint64) {
	l1 := h.L1s[core]
	lat := l1.Latency()
	if hit, vAddr, vValid, vDirty := l1.Access(addr, write); hit {
		return HitL1, lat
	} else if vValid && vDirty {
		// Dirty L1 victim is absorbed by L2 (write-back).
		if h2, v2Addr, v2Valid, v2Dirty := h.L2.Access(vAddr, true); !h2 && v2Valid && v2Dirty {
			h.writeback(v2Addr)
		}
	}
	lat += h.L2.Latency()
	hit, vAddr, vValid, vDirty := h.L2.Access(addr, write)
	if !hit && vValid && vDirty {
		h.writeback(vAddr)
	}
	if hit {
		return HitL2, lat
	}
	return MissLLC, lat
}

func (h *Hierarchy) writeback(addr uint64) {
	if h.Writeback != nil {
		h.Writeback(addr)
	}
}

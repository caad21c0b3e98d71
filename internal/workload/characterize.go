package workload

import (
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// Profile summarizes a reference stream's memory behaviour: the knobs the
// paper's evaluation discriminates on, measured rather than configured.
type Profile struct {
	Refs         uint64
	Instructions uint64
	WriteFrac    float64

	Pages     int // distinct 2 KB pages touched
	Subblocks int // distinct 64 B subblocks touched

	// SubblocksPerPage is the cumulative spatial locality: mean distinct
	// subblocks touched per touched page (1..32).
	SubblocksPerPage float64

	// Top64Share is the fraction of references landing on the 64 most
	// popular pages — the hot-set skew that drives locking.
	Top64Share float64

	// ReuseDistance is the mean number of references between successive
	// touches of the same subblock (capped per sample window); lower means
	// more SRAM-cacheable temporal locality.
	MeanGap float64
}

// FootprintBytes returns the touched footprint.
func (p Profile) FootprintBytes() uint64 { return uint64(p.Pages) * memunits.BlockSize }

// Characterize drains n references from g and measures its Profile.
// The generator is consumed; pass a fresh one (or a Replay clone).
func Characterize(g Generator, n int) Profile {
	var (
		p        Profile
		r        Ref
		pages    = map[uint64]int{}
		subs     = map[uint64]bool{}
		writes   uint64
		instrSum uint64
	)
	for i := 0; i < n; i++ {
		g.Next(&r)
		p.Refs++
		instrSum += uint64(r.Gap)
		if r.Write {
			writes++
		}
		pages[memunits.BlockOf(r.VAddr)]++
		subs[memunits.SubblockOf(r.VAddr)] = true
	}
	p.Instructions = instrSum
	if p.Refs > 0 {
		p.WriteFrac = float64(writes) / float64(p.Refs)
		p.MeanGap = float64(instrSum) / float64(p.Refs)
	}
	p.Pages = len(pages)
	p.Subblocks = len(subs)
	if p.Pages > 0 {
		p.SubblocksPerPage = float64(p.Subblocks) / float64(p.Pages)
	}

	// Top-64 page share. Pages with equal counts are interchangeable here:
	// only the sum of the kept counts is used.
	top64 := stats.NewTopK(64, func(a, b *int) bool { return *a > *b })
	var c int
	for _, c = range pages {
		top64.Insert(&c)
	}
	top := 0
	for _, c := range top64.Sorted() {
		top += c
	}
	if p.Refs > 0 {
		p.Top64Share = float64(top) / float64(p.Refs)
	}
	return p
}

package schemes

import (
	"silcfm/internal/mem"
	"silcfm/internal/stats"
)

// baseline is the normalization point of every figure: a system without
// die-stacked DRAM at all, serving everything from FM. Flat addresses are
// FM-local (the machine has no NM range), so it is the one scheme that
// does not map through mem.System.HomeLocation.
type baseline struct {
	sys *mem.System
}

// Name implements mem.Controller.
func (b *baseline) Name() string { return "base" }

// Handle implements mem.Controller.
func (b *baseline) Handle(a *mem.Access) {
	b.sys.Stats.LLCMisses++
	b.sys.ServiceAccess(a, b.Locate(a.PAddr), stats.PathFM)
}

// Locate implements mem.Controller: identity into FM.
func (b *baseline) Locate(pa uint64) mem.Location {
	return mem.Location{Level: stats.FM, DevAddr: pa}
}

// static routes by the flat address with no remapping and never migrates:
// accesses to the NM range go to NM, the rest to FM. Combined with the vm
// package's random page placement (PolicyRandom) it is the paper's Random
// scheme, the "rand" bar of Figures 6 and 7; combined with interleaved
// placement it is the "static placement scheme without data migration"
// that SILC-FM's headline 82% improvement is measured against.
type static struct {
	sys *mem.System
}

// Name implements mem.Controller.
func (s *static) Name() string { return "rand" }

// Handle implements mem.Controller.
func (s *static) Handle(a *mem.Access) {
	s.sys.Stats.LLCMisses++
	loc := s.Locate(a.PAddr)
	path := stats.PathFM
	if loc.Level == stats.NM {
		path = stats.PathNMHit
	}
	s.sys.ServiceAccess(a, loc, path)
}

// Locate implements mem.Controller: the home mapping.
func (s *static) Locate(pa uint64) mem.Location { return s.sys.HomeLocation(pa) }

package mem

import (
	"fmt"

	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// auditSampleReference is the reference AuditSample must match error for
// error: it marks every sampled device location in one bitset per level,
// sized to the whole space, and rescans the sample from the start on a
// collision for the earlier flat address it names.
func auditSampleReference(ctl Controller, nmCap, fmCap uint64, stride uint64) error {
	if stride == 0 {
		stride = 1
	}
	bitset := func(cap uint64) []uint64 {
		return make([]uint64, (memunits.SubblocksIn(cap+memunits.SubblockSize-1)+63)/64)
	}
	seen := [2][]uint64{stats.NM: bitset(nmCap), stats.FM: bitset(fmCap)}
	totalSubs := memunits.SubblocksIn(nmCap + fmCap)
	for sb := uint64(0); sb < totalSubs; sb += stride {
		pa := memunits.SubblockBase(sb)
		loc := ctl.Locate(pa)
		if loc.DevAddr%memunits.SubblockSize != 0 {
			return fmt.Errorf("audit: unaligned %s address %#x", loc.Level, loc.DevAddr)
		}
		lv, cap := stats.NM, nmCap
		if loc.Level == stats.FM {
			lv, cap = stats.FM, fmCap
		}
		if loc.DevAddr >= cap {
			return fmt.Errorf("audit: %s address %#x beyond capacity %#x", loc.Level, loc.DevAddr, cap)
		}
		idx := loc.DevAddr / memunits.SubblockSize
		word, bit := &seen[lv][idx/64], uint64(1)<<(idx%64)
		if *word&bit != 0 {
			for prev := uint64(0); prev < sb; prev += stride {
				if ctl.Locate(memunits.SubblockBase(prev)) == loc {
					return fmt.Errorf("audit: flat %#x and %#x collide at %s %#x",
						memunits.SubblockBase(prev), pa, loc.Level, loc.DevAddr)
				}
			}
		}
		*word |= bit
	}
	return nil
}

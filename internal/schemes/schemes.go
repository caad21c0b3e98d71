// Package schemes builds the memory controller of every scheme the paper
// evaluates: the no-NM baseline and random placement (flat.go), HMA's
// epoch-based OS migration (hma.go), CAMEO and CAMEOP (cameo.go), PoM
// (pom.go) and SILC-FM (internal/core). CAMEO and PoM are one mechanism at
// two granularities (§II-B) and share one congruence remap table
// (remap.go).
package schemes

import (
	"fmt"

	"silcfm/internal/config"
	"silcfm/internal/core"
	"silcfm/internal/mem"
)

// New constructs the scheme named by m.Scheme over sys. Most
// configuration errors are caught earlier by m.Validate(); this fails only
// on an unknown scheme name.
func New(m config.Machine, sys *mem.System) (mem.Controller, error) {
	switch m.Scheme {
	case config.SchemeBaseline:
		return &baseline{sys}, nil
	case config.SchemeRandom:
		return &static{sys}, nil
	case config.SchemeHMA:
		return newHMA(sys, m.HMA), nil
	case config.SchemeCAMEO:
		return newCAMEO(sys, 0), nil
	case config.SchemeCAMEOP:
		return newCAMEO(sys, 3), nil
	case config.SchemePoM:
		return newPoM(sys, m.PoM), nil
	case config.SchemeSILCFM:
		return core.New(sys, m.SILC), nil
	default:
		return nil, fmt.Errorf("schemes: unknown scheme %q", m.Scheme)
	}
}

package shadow

import (
	"testing"

	"silcfm/internal/config"
)

// allSchemes covers every implemented controller, baseline included.
var allSchemes = []config.SchemeName{
	config.SchemeBaseline,
	config.SchemeRandom,
	config.SchemeHMA,
	config.SchemeCAMEO,
	config.SchemeCAMEOP,
	config.SchemePoM,
	config.SchemeSILCFM,
}

// TestStressAllSchemes hammers every scheme with the adversarial driver
// under the shadow checker and the mapping audit. Two seeds each so both
// the access mix and the movement interleavings vary, at NM = FM/4 and the
// NM-starved FM/16.
func TestStressAllSchemes(t *testing.T) {
	for _, s := range allSchemes {
		s := s
		t.Run(string(s), func(t *testing.T) {
			for _, ratio := range []uint64{4, 16} {
				for _, seed := range []int64{1, 42} {
					if err := RunStress(StressOptions{Scheme: s, Seed: seed, NMRatio: ratio}); err != nil {
						t.Fatalf("FM/%d seed %d: %v", ratio, seed, err)
					}
				}
			}
		})
	}
}

// FuzzSchemes runs the stress driver for about 2,000 operations on a
// fuzzed scheme, seed and NM ratio (FM/4 or FM/16): the shadow checker, the
// mapping audits and the strict quiesced conservation check must all hold.
// The corpus seeds every scheme at both ratios.
func FuzzSchemes(f *testing.F) {
	for i := range allSchemes {
		f.Add(uint8(i), int64(1), false)
		f.Add(uint8(i), int64(1), true)
	}
	f.Fuzz(func(t *testing.T, scheme uint8, seed int64, starved bool) {
		o := StressOptions{Scheme: allSchemes[int(scheme)%len(allSchemes)], Seed: seed, Ops: 2000, NMRatio: 4}
		if starved {
			o.NMRatio = 16
		}
		if err := RunStress(o); err != nil {
			t.Fatalf("%s seed %d FM/%d: %v", o.Scheme, seed, o.NMRatio, err)
		}
	})
}

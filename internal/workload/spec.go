package workload

// The 14 SPEC CPU2006 stand-ins of Table III. Footprints are per core and
// scaled to the reproduction's memory sizes (the paper's footprints are
// 1.5-27 GB against a multi-GB NM; ours keep the same pressure against a
// 128 MB NM / 512 MB FM machine). Each parameter set encodes the behaviour
// the paper attributes to that benchmark in §V.
//
// MPKI classes follow Table III: low < 11, medium 11-32, high > 32
// (measured per core at the LLC).

// Names lists the benchmarks in Table III order.
var Names = []string{
	"bwaves", "cactus", "dealII", "xalanc",
	"gcc", "gems", "leslie", "omnet", "zeusmp",
	"lbm", "lib", "mcf", "milc", "soplex",
}

var specs = map[string]Params{
	// ---- Low MPKI ----
	"bwaves": {
		// Streaming with strong spatial locality; hot set drifts between
		// phases so epoch-stale HMA decisions miss it (§V-B), and the
		// access rate stays below the 0.8 bypass trigger (§V-A).
		Name: "bwaves", Class: LowMPKI,
		FootprintPages: 5120, HotPages: 1024, HotProb: 0.78,
		SuperHotPages: 96, SuperHotProb: 0.12, ZipfS: 1.3,
		VisitSubblocksMin: 12, VisitSubblocksMax: 32,
		ReuseProb: 0.93, GapMean: 9, WriteFrac: 0.25,
		PhaseRefs: 400_000, PhaseShift: 384,
	},
	"cactus": {
		// Moderate spatial locality with a hot set wide enough to thrash a
		// direct-mapped NM: CAMEO suffers conflicts here (§V-B).
		Name: "cactus", Class: LowMPKI,
		FootprintPages: 6144, HotPages: 2560, HotProb: 0.88,
		SuperHotPages: 0, SuperHotProb: 0,
		VisitSubblocksMin: 4, VisitSubblocksMax: 12,
		ReuseProb: 0.93, GapMean: 9, WriteFrac: 0.30,
	},
	"dealII": {
		Name: "dealII", Class: LowMPKI,
		FootprintPages: 4096, HotPages: 1024, HotProb: 0.76,
		SuperHotPages: 128, SuperHotProb: 0.15, ZipfS: 1.4,
		VisitSubblocksMin: 6, VisitSubblocksMax: 16,
		ReuseProb: 0.94, GapMean: 10, WriteFrac: 0.20,
	},
	"xalanc": {
		// Heavily skewed page popularity: a handful of very hot pages that
		// address-bit indexing piles into few NM sets, so locking buys an
		// extra 14% (§V-A).
		Name: "xalanc", Class: LowMPKI,
		FootprintPages: 5120, HotPages: 1024, HotProb: 0.36,
		SuperHotPages: 640, SuperHotProb: 0.52, ZipfS: 1.2,
		VisitSubblocksMin: 3, VisitSubblocksMax: 10,
		ReuseProb: 0.93, GapMean: 9, WriteFrac: 0.15,
	},

	// ---- Medium MPKI ----
	"gcc": {
		// Many lukewarm pages, few that ever cross the hotness threshold:
		// associativity (+36%) matters far more than locking (+11%) (§V-A).
		Name: "gcc", Class: MediumMPKI,
		FootprintPages: 8192, HotPages: 2560, HotProb: 0.90,
		SuperHotPages: 16, SuperHotProb: 0.03, ZipfS: 1.2,
		VisitSubblocksMin: 3, VisitSubblocksMax: 10,
		ReuseProb: 0.86, GapMean: 7, WriteFrac: 0.25,
	},
	"gems": {
		// Many short-lived hot pages: epochs are far too slow, hardware
		// swapping reacts (§V-B: HMA degrades, CAMEO/SILC-FM improve).
		Name: "gems", Class: MediumMPKI,
		FootprintPages: 9216, HotPages: 1280, HotProb: 0.82,
		SuperHotPages: 192, SuperHotProb: 0.12, ZipfS: 1.3,
		VisitSubblocksMin: 8, VisitSubblocksMax: 24,
		ReuseProb: 0.86, GapMean: 7, WriteFrac: 0.30,
		PhaseRefs: 300_000, PhaseShift: 512,
	},
	"leslie": {
		Name: "leslie", Class: MediumMPKI,
		FootprintPages: 8192, HotPages: 1792, HotProb: 0.87,
		SuperHotPages: 128, SuperHotProb: 0.10, ZipfS: 1.3,
		VisitSubblocksMin: 10, VisitSubblocksMax: 28,
		ReuseProb: 0.85, GapMean: 7, WriteFrac: 0.30,
	},
	"omnet": {
		// Pointer-chasing: few subblocks per page visit, so whole-block
		// migration (PoM) wastes bandwidth.
		Name: "omnet", Class: MediumMPKI,
		FootprintPages: 10240, HotPages: 1792, HotProb: 0.84,
		SuperHotPages: 256, SuperHotProb: 0.12, ZipfS: 1.4,
		VisitSubblocksMin: 1, VisitSubblocksMax: 4,
		ReuseProb: 0.85, GapMean: 7, WriteFrac: 0.30,
	},
	"zeusmp": {
		Name: "zeusmp", Class: MediumMPKI,
		FootprintPages: 8192, HotPages: 1536, HotProb: 0.86,
		SuperHotPages: 160, SuperHotProb: 0.10, ZipfS: 1.3,
		VisitSubblocksMin: 6, VisitSubblocksMax: 18,
		ReuseProb: 0.87, GapMean: 7, WriteFrac: 0.25,
	},

	// ---- High MPKI ----
	"lbm": {
		// Streaming stencil: whole 2KB blocks consumed, write heavy, very
		// high bandwidth demand.
		Name: "lbm", Class: HighMPKI,
		FootprintPages: 14336, HotPages: 2048, HotProb: 0.86,
		SuperHotPages: 128, SuperHotProb: 0.08, ZipfS: 1.2,
		VisitSubblocksMin: 20, VisitSubblocksMax: 32,
		ReuseProb: 0.62, GapMean: 8, WriteFrac: 0.45,
	},
	"lib": {
		// libquantum: sequential sweeps over a large vector; HMA's fully
		// associative epoch placement does well, direct-mapped CAMEO
		// conflicts (§V-B).
		Name: "lib", Class: HighMPKI,
		FootprintPages: 12288, HotPages: 1792, HotProb: 0.92,
		SuperHotPages: 0, SuperHotProb: 0,
		VisitSubblocksMin: 16, VisitSubblocksMax: 32,
		ReuseProb: 0.64, GapMean: 8, WriteFrac: 0.20,
	},
	"mcf": {
		// Pointer chasing over a huge working set: minimal spatial
		// locality, the highest MPKI in the suite.
		Name: "mcf", Class: HighMPKI,
		FootprintPages: 15360, HotPages: 1536, HotProb: 0.72,
		SuperHotPages: 192, SuperHotProb: 0.16, ZipfS: 1.3,
		VisitSubblocksMin: 1, VisitSubblocksMax: 4,
		ReuseProb: 0.58, GapMean: 8, WriteFrac: 0.25,
	},
	"milc": {
		// Conflict-prone and so bandwidth hungry that its access rate
		// exceeds 0.8: the benchmark where bypassing pays off (§V-A) and
		// where stale epoch decisions hurt HMA (§V-B).
		Name: "milc", Class: HighMPKI,
		FootprintPages: 15360, HotPages: 1280, HotProb: 0.90,
		SuperHotPages: 256, SuperHotProb: 0.06, ZipfS: 1.2,
		VisitSubblocksMin: 8, VisitSubblocksMax: 20,
		ReuseProb: 0.62, GapMean: 8, WriteFrac: 0.35,
		PhaseRefs: 250_000, PhaseShift: 640,
	},
	"soplex": {
		Name: "soplex", Class: HighMPKI,
		FootprintPages: 12288, HotPages: 1792, HotProb: 0.84,
		SuperHotPages: 256, SuperHotProb: 0.12, ZipfS: 1.3,
		VisitSubblocksMin: 4, VisitSubblocksMax: 14,
		ReuseProb: 0.64, GapMean: 8, WriteFrac: 0.30,
	},
}

// Spec returns the parameter set for a Table III benchmark name.
func Spec(name string) (Params, bool) {
	p, ok := specs[name]
	return p, ok
}

// New builds the named benchmark's generator with the given seed. It
// returns false for unknown names.
func New(name string, seed int64) (*Synthetic, bool) {
	p, ok := specs[name]
	if !ok {
		return nil, false
	}
	return NewSynthetic(p, seed), true
}

// ScaleFootprint returns a copy of p with the footprint and hot-set sizes
// multiplied by num/den, used when shrinking the machine for tests.
func ScaleFootprint(p Params, num, den int) Params {
	scale := func(v int) int {
		s := v * num / den
		if s < 1 && v > 0 {
			s = 1
		}
		return s
	}
	p.FootprintPages = scale(p.FootprintPages)
	p.HotPages = scale(p.HotPages)
	p.SuperHotPages = scale(p.SuperHotPages)
	p.PhaseShift = scale(p.PhaseShift)
	return p
}

package mem

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// funcCtl is a controller whose Locate is an arbitrary function.
type funcCtl func(pa uint64) Location

func (f funcCtl) Name() string              { return "func" }
func (f funcCtl) Handle(*Access)            {}
func (f funcCtl) Locate(pa uint64) Location { return f(memunits.AlignSubblock(pa)) }

// homeOf is the location pa occupies when nothing has moved.
func homeOf(pa, nmCap uint64) Location {
	if pa < nmCap {
		return Location{Level: stats.NM, DevAddr: pa}
	}
	return Location{Level: stats.FM, DevAddr: pa - nmCap}
}

// movedCtl places every flat address at its home unless m moves it.
func movedCtl(nmCap uint64, m map[uint64]Location) funcCtl {
	return func(pa uint64) Location {
		if loc, ok := m[pa]; ok {
			return loc
		}
		return homeOf(pa, nmCap)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestAuditSampleMatchesReferenceCases pins AuditSample to the bitset
// reference on hand-built mappings, one per way a sample can fail or
// collide.
func TestAuditSampleMatchesReferenceCases(t *testing.T) {
	const nmCap, fmCap = 2048, 8192
	nm := func(a uint64) Location { return Location{Level: stats.NM, DevAddr: a} }
	fm := func(a uint64) Location { return Location{Level: stats.FM, DevAddr: a} }
	cases := []struct {
		name   string
		m      map[uint64]Location
		stride uint64
		want   string
	}{
		{"identity", nil, 1, "<nil>"},
		{"moved onto a later home", map[uint64]Location{0x40: nm(0x140)}, 1,
			"audit: flat 0x40 and 0x140 collide at NM 0x140"},
		{"moved onto an earlier home", map[uint64]Location{0x140: nm(0x40)}, 1,
			"audit: flat 0x40 and 0x140 collide at NM 0x40"},
		{"FM address moved onto an NM home", map[uint64]Location{0x1000: nm(0x7c0)}, 1,
			"audit: flat 0x7c0 and 0x1000 collide at NM 0x7c0"},
		{"moved onto an unsampled home", map[uint64]Location{0x0: nm(0x40)}, 3, "<nil>"},
		{"two moved together", map[uint64]Location{0x800: nm(0x40), 0x1000: nm(0x40), 0x40: fm(0x0)}, 1,
			"audit: flat 0x800 and 0x1000 collide at NM 0x40"},
		{"three moved together", map[uint64]Location{0x900: fm(0x1f00), 0x840: fm(0x1f00), 0x880: fm(0x1f00)}, 1,
			"audit: flat 0x840 and 0x880 collide at FM 0x1f00"},
		{"a swap", map[uint64]Location{0x40: fm(0x0), 0x800: nm(0x40)}, 1, "<nil>"},
		{"same address on NM and FM", map[uint64]Location{0x40: fm(0x40), 0x840: nm(0x40)}, 1, "<nil>"},
		{"unaligned", map[uint64]Location{0x80: nm(0x83)}, 1, "audit: unaligned NM address 0x83"},
		{"beyond NM", map[uint64]Location{0x80: nm(nmCap)}, 1, "audit: NM address 0x800 beyond capacity 0x800"},
		{"beyond FM", map[uint64]Location{0x80: fm(fmCap + 0x40)}, 1, "audit: FM address 0x2040 beyond capacity 0x2000"},
		{"collision before a bad sample", map[uint64]Location{0x40: nm(0x0), 0x100: nm(0x3)}, 1,
			"audit: flat 0x0 and 0x40 collide at NM 0x0"},
		{"bad sample before a collision", map[uint64]Location{0x40: nm(0x3), 0x100: nm(0x0)}, 1,
			"audit: unaligned NM address 0x3"},
		{"collision past a bad sample", map[uint64]Location{0x40: nm(0x3), 0x100: nm(0x140)}, 1,
			"audit: unaligned NM address 0x3"},
	}
	for _, c := range cases {
		ctl := movedCtl(nmCap, c.m)
		got, ref := errText(AuditSample(ctl, nmCap, fmCap, c.stride)), errText(auditSampleReference(ctl, nmCap, fmCap, c.stride))
		if got != ref || got != c.want {
			t.Errorf("%s: AuditSample = %q, reference %q, want %q", c.name, got, ref, c.want)
		}
	}
}

// TestAuditSampleMatchesReferenceRandom drives random mappings (bijective
// shuffles with injected faults) through AuditSample and the reference at
// strides 1, 3 and 97, and requires identical errors, nil included.
func TestAuditSampleMatchesReferenceRandom(t *testing.T) {
	outcomes := []string{"<nil>", "audit: flat 0x", "audit: unaligned", "audit: NM address", "audit: FM address"}
	rng := rand.New(rand.NewSource(24))
	errs := map[string]int{}
	for trial := 0; trial < 1500; trial++ {
		stride := []uint64{1, 3, 97}[trial%3]
		total := stride*uint64(2+rng.Intn(40)) + uint64(rng.Intn(8))
		nmSubs := 1 + uint64(rng.Int63n(int64(total-1)))
		nmCap, fmCap := memunits.SubblockBase(nmSubs), memunits.SubblockBase(total-nmSubs)
		// Mostly sampled addresses, so faults land where the audit looks.
		pick := func() uint64 {
			if rng.Intn(4) != 0 {
				return memunits.SubblockBase(stride * uint64(rng.Int63n(int64((total+stride-1)/stride))))
			}
			return memunits.SubblockBase(uint64(rng.Int63n(int64(total))))
		}
		m := map[uint64]Location{}
		ctl := movedCtl(nmCap, m)
		for i := rng.Intn(int(total)); i > 0; i-- {
			a, b := pick(), pick()
			m[a], m[b] = ctl(b), ctl(a)
		}
		for i := rng.Intn(4); i > 0; i-- {
			a, b := pick(), pick()
			loc := ctl(b)
			switch rng.Intn(5) {
			case 0, 1: // collide with wherever b sits, home or not
			case 2: // the same device address on the other level
				loc.Level = 1 - loc.Level
			case 3:
				loc.DevAddr += 1 + uint64(rng.Intn(63))
			case 4:
				size := nmCap
				if loc.Level == stats.FM {
					size = fmCap
				}
				loc.DevAddr = size + memunits.SubblockBase(uint64(rng.Intn(3)))
			}
			m[a] = loc
		}
		got := errText(AuditSample(ctl, nmCap, fmCap, stride))
		if ref := errText(auditSampleReference(ctl, nmCap, fmCap, stride)); got != ref {
			t.Fatalf("trial %d (stride %d, NM %#x, FM %#x): AuditSample = %q, reference %q", trial, stride, nmCap, fmCap, got, ref)
		}
		for _, prefix := range outcomes {
			if strings.HasPrefix(got, prefix) {
				errs[prefix]++
			}
		}
	}
	// The trials must exercise every outcome, not only clean mappings.
	for _, prefix := range outcomes {
		if errs[prefix] == 0 {
			t.Errorf("no trial ended in %q: %v", prefix, errs)
		}
	}
}

// TestAuditSampleCollisionPathIsLinear: a rotation of every sample onto
// the next one's home, broken at the end, is the worst case for the
// collision path (every sample away from home, one collision, found last).
// Locate must run at most 3 times per sample, not once per pair.
func TestAuditSampleCollisionPathIsLinear(t *testing.T) {
	const stride, samples = 3, 400
	nmCap, fmCap := memunits.SubblockBase(stride*samples/4), memunits.SubblockBase(stride*samples*3/4)
	for _, broken := range []bool{false, true} {
		calls := 0
		ctl := funcCtl(func(pa uint64) Location {
			calls++
			sb := memunits.SubblocksIn(pa)
			if sb%stride != 0 {
				return homeOf(pa, nmCap)
			}
			next := (sb/stride + 1) % samples
			if broken && next == 0 {
				next = 1
			}
			return homeOf(memunits.SubblockBase(next*stride), nmCap)
		})
		err := AuditSample(ctl, nmCap, fmCap, stride)
		if (err != nil) != broken {
			t.Fatalf("broken=%v: AuditSample = %v", broken, err)
		}
		if calls > 3*samples {
			t.Errorf("broken=%v: %d Locate calls for %d samples", broken, calls, samples)
		}
		if ref := auditSampleReference(ctl, nmCap, fmCap, stride); errText(err) != errText(ref) {
			t.Errorf("broken=%v: AuditSample = %v, reference %v", broken, err, ref)
		}
	}
}

// TestAuditSampleCostsWhatMoved audits the default machine's flat space at
// the end-of-run stride with 5% of the samples away from home. The audit
// keeps a key per moved sample, not a bit per subblock of the space
// (1.31 MiB).
func TestAuditSampleCostsWhatMoved(t *testing.T) {
	const stride = 97
	m := config.Default()
	nmCap, fmCap := m.NM.Capacity, m.FM.Capacity
	// Every 20th sample trades places with the subblock after it.
	ctl := funcCtl(func(pa uint64) Location {
		sb := memunits.SubblocksIn(pa)
		switch {
		case sb%(20*stride) == 0:
			return homeOf(pa+memunits.SubblockSize, nmCap)
		case sb%(20*stride) == 1:
			return homeOf(pa-memunits.SubblockSize, nmCap)
		}
		return homeOf(pa, nmCap)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := AuditSample(ctl, nmCap, fmCap, stride)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 128<<10 {
		t.Errorf("AuditSample allocated %d B", n)
	}
}

package mem

import (
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/dram"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

func newSys() (*sim.Engine, *System) {
	m := config.Small()
	m.NM = config.HBM(128 << 10)
	m.FM = config.DDR3(512 << 10)
	eng := sim.NewEngine()
	return eng, NewSystem(m, eng)
}

func TestAddressHelpers(t *testing.T) {
	_, s := newSys()
	cases := []struct {
		pa   uint64
		want Location
	}{
		{0, Location{Level: stats.NM, DevAddr: 0}},
		{64, Location{Level: stats.NM, DevAddr: 64}},
		{128<<10 - 64, Location{Level: stats.NM, DevAddr: 128<<10 - 64}},
		{128 << 10, Location{Level: stats.FM, DevAddr: 0}},
		{128<<10 + 64, Location{Level: stats.FM, DevAddr: 64}},
	}
	for _, c := range cases {
		if got := s.HomeLocation(c.pa); got != c.want {
			t.Errorf("HomeLocation(%#x) = %+v, want %+v", c.pa, got, c.want)
		}
	}
}

func TestReadWriteAccounting(t *testing.T) {
	eng, s := newSys()
	done := 0
	s.Submit(Location{Level: stats.NM, DevAddr: 0}, stats.Demand, dram.Request{Bytes: 64, Done: func() { done++ }})
	s.Submit(Location{Level: stats.FM, DevAddr: 0}, stats.Migration, dram.Request{Bytes: 64, Write: true})
	eng.Run()
	if done != 1 {
		t.Fatal("read callback missing")
	}
	if s.Stats.Bytes[stats.NM][stats.Demand] != 64 {
		t.Fatal("read bytes not accounted")
	}
	if s.Stats.Bytes[stats.FM][stats.Migration] != 64 {
		t.Fatal("write bytes not accounted")
	}
	if s.NM.Stats().Reads != 1 || s.FM.Stats().Writes != 1 {
		t.Fatalf("device ops: NM reads %d, FM writes %d", s.NM.Stats().Reads, s.FM.Stats().Writes)
	}
}

func TestReadMetaAccountsBothClasses(t *testing.T) {
	eng, s := newSys()
	s.Submit(Location{Level: stats.NM, DevAddr: 0}, stats.Demand, dram.Request{Bytes: 64, MetaBytes: 8})
	eng.Run()
	if s.Stats.Bytes[stats.NM][stats.Demand] != 64 || s.Stats.Bytes[stats.NM][stats.Metadata] != 8 {
		t.Fatalf("bytes: %+v", s.Stats.Bytes)
	}
}

func TestServiceDemandCounts(t *testing.T) {
	eng, s := newSys()
	reads := 0
	s.ServiceAccess(&Access{PAddr: 0, Done: func() { reads++ }}, Location{Level: stats.NM, DevAddr: 0}, stats.PathNMHit)
	s.ServiceAccess(&Access{PAddr: 128 << 10, Write: true, Done: func() { reads++ }}, Location{Level: stats.FM, DevAddr: 0}, stats.PathFM)
	eng.Run()
	if reads != 2 {
		t.Fatal("callbacks")
	}
	if s.Stats.ServicedNM != 1 || s.Stats.ServicedFM != 1 {
		t.Fatalf("serviced: NM=%d FM=%d", s.Stats.ServicedNM, s.Stats.ServicedFM)
	}
}

// wroteOnce checks that a device took exactly one write of n bytes.
func wroteOnce(t *testing.T, name string, d *dram.Device, n uint64) {
	t.Helper()
	if st := d.Stats(); st.Writes != 1 || st.BytesWritten != n {
		t.Errorf("%s: %d writes of %d bytes, want 1 of %d", name, st.Writes, st.BytesWritten, n)
	}
}

func TestExchangeSubblocksTraffic(t *testing.T) {
	eng, s := newSys()
	s.ExchangeSubblocks(
		Location{Level: stats.NM, DevAddr: 0},
		Location{Level: stats.FM, DevAddr: 0})
	eng.Run()
	// Both writes landed once the engine drained.
	wroteOnce(t, "NM", s.NM, 64)
	wroteOnce(t, "FM", s.FM, 64)
	// 64B read + 64B write on each level.
	if s.Stats.Bytes[stats.NM][stats.Migration] != 128 || s.Stats.Bytes[stats.FM][stats.Migration] != 128 {
		t.Fatalf("exchange bytes: %+v", s.Stats.Bytes)
	}
	if s.NM.Stats().Reads != 1 || s.FM.Stats().Reads != 1 {
		t.Fatal("device ops wrong")
	}
}

// recObs records observer events as strings for order assertions.
type recObs struct{ events []string }

func (r *recObs) Demand(pa uint64, loc Location, write bool) {
	op := "R"
	if write {
		op = "W"
	}
	r.events = append(r.events, op+" demand "+loc.Level.String())
}
func (r *recObs) Capture(loc Location) { r.events = append(r.events, "capture "+loc.Level.String()) }
func (r *recObs) Deliver(src, dst Location) {
	r.events = append(r.events, "deliver "+dst.Level.String())
}
func (r *recObs) Relocate(src, dst Location) {
	r.events = append(r.events, "relocate "+dst.Level.String())
}

func eventsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSwapDemandReadTraffic(t *testing.T) {
	eng, s := newSys()
	done := false
	s.SwapAccess(&Access{PAddr: 128 << 10, Done: func() { done = true }},
		Location{Level: stats.FM, DevAddr: 0},
		Location{Level: stats.NM, DevAddr: 0},
		stats.PathSwap)
	eng.Run()
	if !done {
		t.Fatal("demand callback missing")
	}
	if s.Stats.ServicedFM != 1 {
		t.Fatal("demand side not counted at src level")
	}
	// Demand read of src (64B FM demand), migration write to dst, plus the
	// counterflow read of dst + write to src.
	if s.Stats.Bytes[stats.FM][stats.Demand] != 64 {
		t.Fatalf("demand bytes: %+v", s.Stats.Bytes)
	}
	if s.Stats.Bytes[stats.NM][stats.Migration] != 128 || s.Stats.Bytes[stats.FM][stats.Migration] != 64 {
		t.Fatalf("migration bytes: %+v", s.Stats.Bytes)
	}
}

// TestSwapAccessCompletesBeforeWritingDst pins the read-path order: the
// demand leg's completion runs before the relay submits its write to dst.
// At completion dst has seen only the counterflow read of its old contents.
func TestSwapAccessCompletesBeforeWritingDst(t *testing.T) {
	eng, s := newSys()
	src := Location{Level: stats.FM, DevAddr: 0}
	dst := Location{Level: stats.NM, DevAddr: 0}
	atDone := ^uint64(0)
	s.SwapAccess(&Access{PAddr: 128 << 10, Done: func() { atDone = s.Stats.Bytes[stats.NM][stats.Migration] }},
		src, dst, stats.PathSwap)
	eng.Run()
	if atDone != 64 {
		t.Fatalf("NM migration bytes at demand completion = %d, want 64 (the read of dst only)", atDone)
	}
	wroteOnce(t, "NM", s.NM, 64)
}

// TestSwapDemandWriteOrdering pins the write-path ordering contract: the
// destination's old contents must be captured before the demand write lands,
// and the fault-injection hook must reproduce the reversed (buggy) order.
func TestSwapDemandWriteOrdering(t *testing.T) {
	eng, s := newSys()
	obs := &recObs{}
	s.AttachObserver(obs)
	src := Location{Level: stats.FM, DevAddr: 0}
	dst := Location{Level: stats.NM, DevAddr: 0}
	s.SwapAccess(&Access{PAddr: 128 << 10, Write: true}, src, dst, stats.PathSwap)
	eng.Run()
	want := []string{"capture NM", "W demand NM", "deliver FM"}
	if !eventsEqual(obs.events, want) {
		t.Fatalf("fixed order = %v, want %v", obs.events, want)
	}
	// NM: one migration read + one demand write; FM: one migration write.
	if s.Stats.Bytes[stats.NM][stats.Demand] != 64 || s.Stats.Bytes[stats.NM][stats.Migration] != 64 ||
		s.Stats.Bytes[stats.FM][stats.Migration] != 64 {
		t.Fatalf("write-swap bytes: %+v", s.Stats.Bytes)
	}

	eng2, s2 := newSys()
	obs2 := &recObs{}
	s2.AttachObserver(obs2)
	s2.FaultInjectSwapOrder = true
	s2.SwapAccess(&Access{PAddr: 128 << 10, Write: true}, src, dst, stats.PathSwap)
	eng2.Run()
	bad := []string{"W demand NM", "capture NM", "deliver FM"}
	if !eventsEqual(obs2.events, bad) {
		t.Fatalf("fault-injected order = %v, want %v", obs2.events, bad)
	}
}

func TestExchangeSubblocksEvents(t *testing.T) {
	eng, s := newSys()
	obs := &recObs{}
	s.AttachObserver(obs)
	s.ExchangeSubblocks(
		Location{Level: stats.NM, DevAddr: 0},
		Location{Level: stats.FM, DevAddr: 0})
	eng.Run()
	want := []string{"capture NM", "capture FM", "deliver FM", "deliver NM"}
	if !eventsEqual(obs.events, want) {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
}

func TestBlockDMATraffic(t *testing.T) {
	eng, s := newSys()
	obs := &recObs{}
	s.AttachObserver(obs)
	s.ExchangeBlocksDMA(
		Location{Level: stats.NM, DevAddr: 0},
		Location{Level: stats.FM, DevAddr: 0})
	s.RelocateBlockDMA(
		Location{Level: stats.FM, DevAddr: 2048},
		Location{Level: stats.NM, DevAddr: 2048})
	eng.Run()
	// Every write landed: NM takes the exchange's and the relocation's
	// 2 KB writes, FM the exchange's.
	if st := s.NM.Stats(); st.Writes != 2 || st.BytesWritten != 2*2048 {
		t.Errorf("NM: %d writes of %d bytes, want 2 of %d", st.Writes, st.BytesWritten, 2*2048)
	}
	wroteOnce(t, "FM", s.FM, 2048)
	// Exchange: 2KB read+write on each level. Relocate: 2KB FM read + 2KB
	// NM write.
	if s.Stats.Bytes[stats.NM][stats.Migration] != 3*2048 || s.Stats.Bytes[stats.FM][stats.Migration] != 3*2048 {
		t.Fatalf("DMA bytes: %+v", s.Stats.Bytes)
	}
	// 32 capture+capture+deliver+deliver for the exchange, 32 relocates.
	if len(obs.events) != 32*4+32 {
		t.Fatalf("event count = %d", len(obs.events))
	}
}

// fakeCtl wraps an explicit mapping for audit tests.
type fakeCtl struct {
	m map[uint64]Location
}

func (f *fakeCtl) Name() string     { return "fake" }
func (f *fakeCtl) Handle(a *Access) {}
func (f *fakeCtl) Locate(pa uint64) Location {
	if loc, ok := f.m[memunits.AlignSubblock(pa)]; ok {
		return loc
	}
	if pa < 2048 {
		return Location{Level: stats.NM, DevAddr: memunits.AlignSubblock(pa)}
	}
	return Location{Level: stats.FM, DevAddr: memunits.AlignSubblock(pa) - 2048}
}

func TestAuditDetectsCollision(t *testing.T) {
	nmCap, fmCap := uint64(2048), uint64(8192)
	ok := &fakeCtl{m: map[uint64]Location{}}
	if err := Audit(ok, nmCap, fmCap); err != nil {
		t.Fatalf("identity mapping rejected: %v", err)
	}
	// Two flat subblocks to one location.
	bad := &fakeCtl{m: map[uint64]Location{
		0:  {Level: stats.NM, DevAddr: 64},
		64: {Level: stats.NM, DevAddr: 64},
	}}
	if err := Audit(bad, nmCap, fmCap); err == nil {
		t.Fatal("audit missed a collision")
	}
	// Unaligned.
	unaligned := &fakeCtl{m: map[uint64]Location{0: {Level: stats.NM, DevAddr: 3}}}
	if err := Audit(unaligned, nmCap, fmCap); err == nil {
		t.Fatal("audit missed misalignment")
	}
	// Out of range.
	oob := &fakeCtl{m: map[uint64]Location{0: {Level: stats.NM, DevAddr: 1 << 40}}}
	if err := Audit(oob, nmCap, fmCap); err == nil {
		t.Fatal("audit missed out-of-range")
	}
}

func TestAuditSample(t *testing.T) {
	nmCap, fmCap := uint64(2048), uint64(8192)
	ok := &fakeCtl{m: map[uint64]Location{}}
	if err := AuditSample(ok, nmCap, fmCap, 3); err != nil {
		t.Fatal(err)
	}
	bad := &fakeCtl{m: map[uint64]Location{
		0:   {Level: stats.FM, DevAddr: 0},
		128: {Level: stats.FM, DevAddr: 1 << 40},
	}}
	if err := AuditSample(bad, nmCap, fmCap, 1); err == nil {
		t.Fatal("sample audit missed out-of-range")
	}
	// Stride 0 treated as 1.
	if err := AuditSample(ok, nmCap, fmCap, 0); err != nil {
		t.Fatal(err)
	}
}

// TestAuditSampleCollisionText: a same-level collision names the earlier
// sampled flat address, the later one and the shared device location, also
// when the two sampled subblocks are far apart.
func TestAuditSampleCollisionText(t *testing.T) {
	nmCap, fmCap := uint64(2048), uint64(8192)
	cases := []struct {
		m      map[uint64]Location
		stride uint64
		want   string
	}{
		{map[uint64]Location{0: {Level: stats.NM, DevAddr: 64}}, 1,
			"audit: flat 0x0 and 0x40 collide at NM 0x40"},
		{map[uint64]Location{0xc0: {Level: stats.FM, DevAddr: 0x1780}}, 3,
			"audit: flat 0xc0 and 0x1f80 collide at FM 0x1780"},
	}
	for _, c := range cases {
		err := AuditSample(&fakeCtl{m: c.m}, nmCap, fmCap, c.stride)
		if err == nil || err.Error() != c.want {
			t.Errorf("AuditSample = %v, want %q", err, c.want)
		}
	}
}

// TestAuditSampleLevelsAreSeparate: the same device address on NM and FM is
// two locations, not a collision.
func TestAuditSampleLevelsAreSeparate(t *testing.T) {
	nmCap, fmCap := uint64(2048), uint64(8192)
	swapped := &fakeCtl{m: map[uint64]Location{
		0x40:  {Level: stats.FM, DevAddr: 0x40},
		0x840: {Level: stats.NM, DevAddr: 0x40},
	}}
	if err := AuditSample(swapped, nmCap, fmCap, 1); err != nil {
		t.Fatalf("NM 0x40 and FM 0x40 reported as a collision: %v", err)
	}
}

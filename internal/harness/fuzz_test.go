package harness

import (
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/workload"
)

// fuzzSchemes is every scheme the harness builds, baseline first.
var fuzzSchemes = append([]config.SchemeName{config.SchemeBaseline}, config.AllSchemes...)

// fuzzMachine varies a bounded set of config.Small's fields: scheme, up to
// 4 cores, NM of up to 512 blocks (1 MiB), FM at NM × ratio (ratio ≤ 256,
// FM ≤ 64 MiB), PoM and SILC ways, SILC counter bits, the HMA epoch, and
// both devices' queue lengths and channel counts.
func fuzzMachine(scheme, cores uint8, nmBlocks, ratio uint16, pomWays, silcWays, counterBits int8,
	hmaEpoch uint32, readQ, writeQ int8, nmCh, fmCh uint8) config.Machine {
	m := config.Small()
	m.Scheme = fuzzSchemes[int(scheme)%len(fuzzSchemes)]
	m.Cores = int(cores % 5)
	nm := uint64(nmBlocks%513) * memunits.BlockSize
	r := uint64(ratio % 257)
	if nm > 0 {
		r = min(r, (64<<20)/nm)
	}
	m.NM, m.FM = config.HBM(nm), config.DDR3(nm*r)
	m.NM.Channels, m.FM.Channels = int(nmCh%9), int(fmCh%9)
	for _, d := range []*config.DRAMConfig{&m.NM, &m.FM} {
		d.ReadQueueLen, d.WriteQueueLen = int(readQ), int(writeQ)
	}
	m.PoM.Ways = int(pomWays)
	m.SILC.Features.Ways = int(silcWays)
	m.SILC.CounterBits = int(counterBits)
	m.HMA.EpochCycles = uint64(hmaEpoch)
	return m
}

// FuzzMachine feeds fuzzed machines to harness.Run. A machine Validate
// rejects must come back as an error from Run, never a panic. A machine it
// accepts must build a controller whose mapping passes the full audit, and
// a ~2,000-instruction-per-core run with footprints scaled to fit must
// pass every end-of-run audit or fail with a clean capacity error; it must
// never panic or deadlock.
func FuzzMachine(f *testing.F) {
	// scheme, cores, NM blocks, FM/NM, PoM ways, SILC ways, counter bits,
	// HMA epoch, read/write queue lengths, NM/FM channels.
	for i := range fuzzSchemes {
		f.Add(uint8(i), uint8(4), uint16(256), uint16(4), int8(1), int8(4), int8(6), uint32(4096), int8(32), int8(32), uint8(8), uint8(4))
	}
	pom := uint8(len(fuzzSchemes) - 2)
	f.Add(pom, uint8(1), uint16(5), uint16(4), int8(2), int8(4), int8(6), uint32(4096), int8(32), int8(32), uint8(1), uint8(1))
	f.Add(pom, uint8(1), uint16(6), uint16(4), int8(4), int8(4), int8(6), uint32(4096), int8(32), int8(32), uint8(1), uint8(1))
	silc := uint8(len(fuzzSchemes) - 1)
	f.Add(silc, uint8(1), uint16(5), uint16(4), int8(1), int8(2), int8(6), uint32(4096), int8(32), int8(32), uint8(1), uint8(1))
	f.Add(silc, uint8(1), uint16(6), uint16(4), int8(1), int8(4), int8(6), uint32(4096), int8(32), int8(32), uint8(1), uint8(1))
	f.Add(silc, uint8(2), uint16(64), uint16(4), int8(1), int8(4), int8(-1), uint32(4096), int8(32), int8(32), uint8(8), uint8(4))
	f.Add(silc, uint8(2), uint16(64), uint16(4), int8(1), int8(4), int8(9), uint32(4096), int8(32), int8(32), uint8(8), uint8(4))
	f.Add(uint8(2), uint8(2), uint16(64), uint16(4), int8(1), int8(4), int8(6), uint32(0), int8(32), int8(32), uint8(8), uint8(4))
	f.Add(uint8(3), uint8(1), uint16(16), uint16(256), int8(1), int8(4), int8(6), uint32(4096), int8(32), int8(32), uint8(8), uint8(4))
	f.Fuzz(func(t *testing.T, scheme, cores uint8, nmBlocks, ratio uint16, pomWays, silcWays, counterBits int8,
		hmaEpoch uint32, readQ, writeQ int8, nmCh, fmCh uint8) {
		m := fuzzMachine(scheme, cores, nmBlocks, ratio, pomWays, silcWays, counterBits, hmaEpoch, readQ, writeQ, nmCh, fmCh)
		spec := Spec{Machine: m, Workload: "mcf", InstrPerCore: 2_000, FootScaleNum: 1, FootScaleDen: 1, ShadowCheck: true}
		if err := m.Validate(); err != nil {
			if _, rerr := Run(spec); rerr == nil {
				t.Fatalf("Validate rejects %+v (%v) but Run accepts it", m, err)
			}
			return
		}

		nmCap := m.NM.Capacity
		if m.Scheme == config.SchemeBaseline {
			nmCap = 0
		}
		ctl, err := NewController(m, mem.NewSystem(m, sim.NewEngine()))
		if err != nil {
			t.Fatalf("NewController: %v", err)
		}
		if err := mem.Audit(ctl, nmCap, m.FM.Capacity); err != nil {
			t.Fatalf("%s at NM %d FM %d: fresh controller fails the audit: %v", m.Scheme, m.NM.Capacity, m.FM.Capacity, err)
		}

		if c := m.TotalCapacity(); c > 0 {
			params, _ := workload.Spec(spec.Workload)
			spec.FootScaleDen = int(uint64(params.FootprintPages)*m.PageSize*uint64(m.Cores)/c) + 1
		}
		r, err := Run(spec)
		if err != nil {
			if !strings.Contains(err.Error(), "exceeds capacity") {
				t.Fatalf("%s: Run: %v", m.Scheme, err)
			}
			return
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s at NM %d FM %d: %v", m.Scheme, m.NM.Capacity, m.FM.Capacity, err)
		}
	})
}

package telemetry_test

import (
	"io"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
)

// scramble maps i < 2^20 to a distinct key below 2^20 (multiplying by an
// odd constant permutes the residues), so tables fill in hashed, not
// sorted, key order.
func scramble(i int) uint64 { return uint64(i) * 0x9e3779b1 & (1<<20 - 1) }

// filledProfiler returns a profiler holding blocks block keys and pcs PC
// keys, none dropped, with counters of about a real run's widths.
func filledProfiler(blocks, pcs int) *telemetry.Profiler {
	p := telemetry.NewProfiler(mem.NewSystem(config.Small(), sim.NewEngine()), max(blocks, pcs))
	for i := 0; i < max(blocks, pcs); i++ {
		a := &mem.Access{
			PC:    0x400000 + 4*scramble(i%pcs),
			PAddr: scramble(i%blocks) << 11,
			Write: i%3 == 0,
		}
		path := stats.DemandPath(i % int(stats.NumDemandPaths))
		for r := 0; r <= i%4; r++ {
			p.DemandComplete(a, path, uint64(60+i%900))
		}
		if i%5 == 0 {
			p.Lock(uint64(i), scramble(i%blocks), i%2 == 0)
		}
	}
	return p
}

// filledTracer returns a tracer whose ring holds events events of every
// kind, cycle stamps rising, with device addresses of a 512 MiB device.
func filledTracer(events int) *telemetry.Tracer {
	eng := sim.NewEngine()
	tr := telemetry.NewTracer(eng, events)
	for i := 0; i < events; i++ {
		eng.RunUntil(sim.Cycle(i) * 37)
		a := mem.Location{Level: stats.MemLevel(i % 2), DevAddr: scramble(i) << 9}
		b := mem.Location{Level: stats.MemLevel(1 - i%2), DevAddr: scramble(i+1) << 9}
		switch i % 8 {
		case 0, 1:
			tr.Demand(a.DevAddr|0x1c0, a, i%8 == 1)
		case 2:
			tr.Capture(a)
		case 3:
			tr.Deliver(a, b)
		case 4:
			tr.Relocate(a, b)
		case 5:
			tr.Swap(a, b)
		case 6:
			tr.Lock(uint64(i)&0xffff, scramble(i), i%16 == 6)
		default:
			tr.Unlock(uint64(i)&0xffff, scramble(i))
		}
	}
	return tr
}

// TestWriterAllocsDoNotGrowWithEntries requires both end-of-run writers to
// make as many allocations for 32k entries as for 1k: they may size a
// buffer once, but never allocate per line or per event.
func TestWriterAllocsDoNotGrowWithEntries(t *testing.T) {
	allocs := func(write func(io.Writer) error) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := filledProfiler(1<<10, 1<<10), filledProfiler(1<<15, 1<<15)
	if a, b := allocs(small.WriteJSONL), allocs(large.WriteJSONL); b > a {
		t.Errorf("profile WriteJSONL: %.0f allocations for 1k blocks and PCs, %.0f for 32k", a, b)
	}
	smallTr, largeTr := filledTracer(1<<10), filledTracer(1<<15)
	if a, b := allocs(smallTr.Write), allocs(largeTr.Write); b > a {
		t.Errorf("trace Write: %.0f allocations for 1k events, %.0f for 32k", a, b)
	}
}

// BenchmarkProfileWriteJSONL writes a full default-sized block table
// (32,768 blocks) and 8,192 PCs, about a 500k-instruction mcf run's
// profile.
func BenchmarkProfileWriteJSONL(b *testing.B) {
	p := filledProfiler(telemetry.DefaultProfileMaxEntries, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceWrite writes a full default-sized trace ring (262,144
// events).
func BenchmarkTraceWrite(b *testing.B) {
	tr := filledTracer(telemetry.DefaultTraceLimit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

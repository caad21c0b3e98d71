package telemetry

import (
	"runtime"
	"testing"
	"unsafe"

	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

// TestTraceEventIs32Bytes pins the ring event: a full default ring holds
// DefaultTraceLimit of them, 8 MiB at 32 bytes each.
func TestTraceEventIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 32 {
		t.Fatalf("trace event is %d bytes, want at most 32", n)
	}
}

// TestHugeTraceLimitCostsOnlyRecordedEvents builds a tracer whose limit
// could never be allocated up front, records 1,000 events into it and
// checks that the ring paid for about what it recorded, not for its limit.
func TestHugeTraceLimitCostsOnlyRecordedEvents(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewTracer(sim.NewEngine(), 1<<40)
	for i := uint64(0); i < 1000; i++ {
		tr.Swap(mem.Location{Level: stats.FM, DevAddr: i << 6}, mem.Location{DevAddr: i})
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("1,000 events under a 2^40 limit allocated %d B, want under 1 MiB", got)
	}
	if total, dropped := tr.Events(); total != 1000 || dropped != 0 {
		t.Fatalf("events %d dropped %d, want 1000 and 0", total, dropped)
	}
}

package telemetry

import (
	"testing"
	"unsafe"
)

// TestTraceEventIs40Bytes pins the packed ring event: the default ring holds
// DefaultTraceLimit of them, 10 MiB at 40 bytes each.
func TestTraceEventIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 40 {
		t.Fatalf("trace event is %d bytes, want at most 40", n)
	}
}

package dram

import (
	"testing"
	"unsafe"
)

// TestOpIsAtMost48Bytes pins the queued op's width: the arena holds every
// submitted, unissued request, over 15,000 at a time on SILC-FM's
// metadata channel under mcf.
func TestOpIsAtMost48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n > 48 {
		t.Fatalf("dram op is %d bytes, want at most 48", n)
	}
}

// TestSubmitRejectsRequestsWiderThanTheOp checks that a request whose byte
// counts do not fit the op's fields is refused, not truncated.
func TestSubmitRejectsRequestsWiderThanTheOp(t *testing.T) {
	for _, r := range []Request{{Bytes: 1 << 32}, {Bytes: 64, MetaBytes: 1 << 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit(%d+%d bytes) did not panic", r.Bytes, r.MetaBytes)
				}
			}()
			_, d := newFM(t)
			d.Submit(r)
		}()
	}
}

package dram

import (
	"testing"
	"unsafe"
)

// TestQueuedRequestIs48Bytes pins what one queued request costs the
// device: its 40-byte arena op plus its 8-byte queue entry, and no
// free-list slot. The queues hold every submitted, unissued request, over
// 15,000 at a time on SILC-FM's metadata channel under mcf.
func TestQueuedRequestIs48Bytes(t *testing.T) {
	if o, e := unsafe.Sizeof(op{}), unsafe.Sizeof(entry{}); o != 40 || e != 8 {
		t.Fatalf("queued request is a %d-byte op plus a %d-byte entry, want 40 + 8", o, e)
	}
}

// TestSubmitRejectsRequestsWiderThanTheOp checks that a request whose byte
// counts do not fit the op's fields, or whose row does not fit the queue
// entry's key, is refused, not truncated.
func TestSubmitRejectsRequestsWiderThanTheOp(t *testing.T) {
	// The test device has 8 banks per channel: 29 bits of row key.
	for _, r := range []Request{{Bytes: 1 << 32}, {Bytes: 64, MetaBytes: 1 << 16}, {Addr: 1 << (29 + 7 + 3 + 2 + 6)}} {
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

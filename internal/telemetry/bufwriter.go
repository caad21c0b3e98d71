package telemetry

import "io"

// flushBytes is the buffered output size at which a bufWriter hands its
// buffer to the underlying writer.
const flushBytes = 64 << 10

// bufWriter is the end-of-run writers' output buffer: Tracer.Write and
// Profiler.WriteJSONL append each record to buf by hand and then call
// flushFull, so the underlying writer sees chunks of about flushBytes. The
// first write error sticks: later flushes drop their bytes and return it.
type bufWriter struct {
	buf []byte
	w   io.Writer
	err error
}

func newBufWriter(w io.Writer) bufWriter {
	return bufWriter{buf: make([]byte, 0, flushBytes+1024), w: w}
}

// flushFull flushes once the buffer holds flushBytes or more.
func (b *bufWriter) flushFull() {
	if len(b.buf) >= flushBytes {
		b.flush()
	}
}

// flush hands the buffered bytes to the writer and returns the first write
// error.
func (b *bufWriter) flush() error {
	if b.err == nil && len(b.buf) > 0 {
		_, b.err = b.w.Write(b.buf)
	}
	b.buf = b.buf[:0]
	return b.err
}

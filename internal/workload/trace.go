package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace file format: a fixed header followed by fixed-size little-endian
// records. This lets cmd/silcfm-trace capture a generator's stream once and
// replay it bit-identically across schemes.
//
//	header: magic "SFMT" | version u16 | flags u16 | count u64 | name [16]byte
//	record: pc u64 | vaddr u64 | gap u32 | flags u32 (bit0 = write)

const (
	traceMagic   = "SFMT"
	traceVersion = 1
	recordSize   = 24
)

// TraceWriter streams records to an io.Writer.
type TraceWriter struct {
	w     *bufio.Writer
	count uint64
	buf   [recordSize]byte
}

// NewTraceWriter writes a header for a stream of unknown length (count 0 in
// the header; readers rely on EOF). name is truncated to 16 bytes.
func NewTraceWriter(w io.Writer, name string) (*TraceWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [32]byte
	copy(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], traceVersion)
	copy(hdr[16:32], name)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &TraceWriter{w: bw}, nil
}

// Write appends one record.
func (t *TraceWriter) Write(r Ref) error {
	b := t.buf[:]
	binary.LittleEndian.PutUint64(b[0:8], r.PC)
	binary.LittleEndian.PutUint64(b[8:16], r.VAddr)
	binary.LittleEndian.PutUint32(b[16:20], r.Gap)
	var fl uint32
	if r.Write {
		fl = 1
	}
	binary.LittleEndian.PutUint32(b[20:24], fl)
	if _, err := t.w.Write(b); err != nil {
		return fmt.Errorf("trace: write record: %w", err)
	}
	t.count++
	return nil
}

// Count returns records written so far.
func (t *TraceWriter) Count() uint64 { return t.count }

// Flush flushes buffered records.
func (t *TraceWriter) Flush() error { return t.w.Flush() }

// TraceReader reads records from an io.Reader.
type TraceReader struct {
	r    *bufio.Reader
	name string
	buf  [recordSize]byte
}

// NewTraceReader validates the header and prepares to read records.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [32]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if string(hdr[0:4]) != traceMagic {
		return nil, errors.New("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	name := hdr[16:32]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	return &TraceReader{r: br, name: string(name[:end])}, nil
}

// Name returns the workload name stored in the header.
func (t *TraceReader) Name() string { return t.name }

// Read fills r with the next record; it returns io.EOF at end of trace.
func (t *TraceReader) Read(r *Ref) error {
	if _, err := io.ReadFull(t.r, t.buf[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("trace: read record: %w", err)
	}
	b := t.buf[:]
	r.PC = binary.LittleEndian.Uint64(b[0:8])
	r.VAddr = binary.LittleEndian.Uint64(b[8:16])
	r.Gap = binary.LittleEndian.Uint32(b[16:20])
	r.Write = binary.LittleEndian.Uint32(b[20:24])&1 != 0
	return nil
}

// Replay is a Generator that loops over an in-memory trace.
type Replay struct {
	name string
	refs []Ref
	pos  int
	foot uint64
}

// NewReplay wraps a record slice as a looping generator. Every record
// must have Gap >= 1: a core that retires no instruction per reference
// never reaches its instruction target.
func NewReplay(name string, refs []Ref) (*Replay, error) {
	if len(refs) == 0 {
		return nil, errors.New("trace: empty replay")
	}
	pages := map[uint64]bool{}
	for i := range refs {
		if refs[i].Gap == 0 {
			return nil, fmt.Errorf("trace: record %d has gap 0, want >= 1", i)
		}
		pages[refs[i].VAddr>>11] = true
	}
	return &Replay{name: name, refs: refs, foot: uint64(len(pages)) * 2048}, nil
}

// LoadReplay reads an entire trace into a Replay generator.
func LoadReplay(r io.Reader) (*Replay, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	var refs []Ref
	for {
		var ref Ref
		if err := tr.Read(&ref); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		refs = append(refs, ref)
	}
	return NewReplay(tr.Name(), refs)
}

// Name implements Generator.
func (p *Replay) Name() string { return p.name }

// FootprintBytes implements Generator.
func (p *Replay) FootprintBytes() uint64 { return p.foot }

// Len returns the number of records in one loop.
func (p *Replay) Len() int { return len(p.refs) }

// Next implements Generator, wrapping around at the end of the trace.
func (p *Replay) Next(r *Ref) {
	*r = p.refs[p.pos]
	p.pos++
	if p.pos == len(p.refs) {
		p.pos = 0
	}
}

// CloneAt returns an independent replay cursor over the same records,
// starting at fraction i/n of the trace. Rate-mode simulations give each
// core its own staggered clone so instances do not move in lockstep.
func (p *Replay) CloneAt(i, n int) *Replay {
	c := *p
	if n > 0 {
		c.pos = len(p.refs) * (i % n) / n
	}
	return &c
}

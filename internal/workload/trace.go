package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
)

// Trace capture and replay. A trace file stores one core's reference
// stream in a compact varint format so synthetic workloads can be
// frozen, inspected, diffed across versions, or replayed without the
// generator. Format:
//
//	header:  magic "CMPT" | version u8 | benchmark name (u8 len + bytes)
//	record:  gap varint | kind u8 (bit 0-1 kind, bit 2 blocking) |
//	         addr delta zig-zag varint (vs previous address)
//
// Address deltas are zig-zag encoded because strided streams produce
// tiny deltas; a typical trace costs ~4 bytes per reference.

const (
	traceMagic   = "CMPT"
	traceVersion = 1
)

var (
	// ErrTraceFormat reports a malformed trace stream.
	ErrTraceFormat = errors.New("workload: malformed trace")
)

// TraceWriter streams Refs to an io.Writer.
type TraceWriter struct {
	w        *bufio.Writer
	prevAddr uint64
	buf      [2 * binary.MaxVarintLen64]byte
}

// NewTraceWriter writes the header and returns a writer. Call Flush
// when done.
func NewTraceWriter(w io.Writer, benchmark string) (*TraceWriter, error) {
	if len(benchmark) > 255 {
		return nil, fmt.Errorf("workload: benchmark name too long")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(len(benchmark))); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(benchmark); err != nil {
		return nil, err
	}
	return &TraceWriter{w: bw}, nil
}

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Write appends one reference.
func (t *TraceWriter) Write(r Ref) error {
	n := binary.PutUvarint(t.buf[:], uint64(r.Gap))
	kind := byte(r.Kind) & 0x3
	if r.Blocking {
		kind |= 4
	}
	t.buf[n] = kind
	n++
	delta := int64(uint64(r.Addr)) - int64(t.prevAddr)
	n += binary.PutUvarint(t.buf[n:], zigzag(delta))
	t.prevAddr = uint64(r.Addr)
	_, err := t.w.Write(t.buf[:n])
	return err
}

// Flush drains buffered output.
func (t *TraceWriter) Flush() error { return t.w.Flush() }

// TraceReader replays a trace as a reference source.
type TraceReader struct {
	r         *bufio.Reader
	Benchmark string
	prevAddr  uint64
}

// NewTraceReader validates the header and returns a reader.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTraceFormat, err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrTraceFormat, magic)
	}
	ver, err := br.ReadByte()
	if err != nil || ver != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrTraceFormat, ver)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTraceFormat, err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTraceFormat, err)
	}
	return &TraceReader{r: br, Benchmark: string(name)}, nil
}

// Next reads one reference; io.EOF ends the trace cleanly.
func (t *TraceReader) Next(r *Ref) error {
	gap, err := binary.ReadUvarint(t.r)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: %v", ErrTraceFormat, err)
	}
	kind, err := t.r.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: truncated record", ErrTraceFormat)
	}
	dz, err := binary.ReadUvarint(t.r)
	if err != nil {
		return fmt.Errorf("%w: truncated record", ErrTraceFormat)
	}
	if kind&0x3 > uint8(coherence.IFetch) {
		return fmt.Errorf("%w: bad kind %d", ErrTraceFormat, kind)
	}
	addr := uint64(int64(t.prevAddr) + unzigzag(dz))
	t.prevAddr = addr
	r.Gap = uint32(gap)
	r.Kind = coherence.Kind(kind & 0x3)
	r.Blocking = kind&4 != 0
	r.Addr = cache.BlockAddr(addr)
	return nil
}

// RecordSource captures n references from a reference source of the
// given kind ("" = the profile's own Kind) into w.
func RecordSource(w io.Writer, kind string, p Profile, core int, seed int64, n int) error {
	src, err := NewSource(kind, p, core, seed)
	if err != nil {
		return err
	}
	tw, err := NewTraceWriter(w, p.Name)
	if err != nil {
		return err
	}
	refs := make([]Ref, 256)
	for n > 0 {
		batch := refs
		if n < len(batch) {
			batch = batch[:n]
		}
		src.NextN(batch)
		for i := range batch {
			if err := tw.Write(batch[i]); err != nil {
				return err
			}
		}
		n -= len(batch)
	}
	return tw.Flush()
}

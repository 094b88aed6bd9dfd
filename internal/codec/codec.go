// Package codec defines the cache-line compression interface the
// simulator prices timing against, and a registry of the classic
// line-compression schemes from the literature:
//
//	fpc    Frequent Pattern Compression (Alameldeen & Wood; the paper's
//	       codec and the simulator default)
//	bdi    Base-Delta-Immediate (Pekhimenko et al., PACT 2012)
//	zca    zero-content / frequent-value lines (Dusser et al.; Zhang et
//	       al.): whole-line zero and single-repeated-value detection
//	cpack  C-Pack (Chen et al., TVLSI 2010): pattern codes plus a small
//	       FIFO dictionary of recent words
//
// Every codec shares one segment contract: a 64-byte line compresses to an integral number of 8-byte segments in
// [1, MaxSegments], and a line that does not beat MaxSegments is stored
// raw (segs == MaxSegments means the payload is the uncompressed line).
// Encode and decode hot paths are allocation-free with reused buffers,
// and DecodeInto is strict: it rejects streams that are not the
// codec's canonical encoding of the decoded line at the claimed
// segment count (wrong-segs or truncated streams fail instead of
// "successfully" decoding a line that was never encoded).
package codec

import (
	"fmt"

	"cmpsim/internal/registry"
)

// LineSize is the cache-line size in bytes every codec compresses.
const LineSize = 64

// SegmentSize is the compression granularity in bytes: lines occupy an
// integral number of 8-byte segments in the compressed cache and cross
// the off-chip link in 8-byte flits.
const SegmentSize = 8

// MaxSegments is the size of an uncompressed line in segments.
const MaxSegments = LineSize / SegmentSize

// Codec is one cache-line compression scheme. Implementations must be
// stateless (safe for concurrent use) and allocation-free on the
// CompressedSizeSegments, AppendEncode and DecodeInto hot paths when
// handed reused buffers of sufficient capacity.
type Codec interface {
	// Name is the registry key ("fpc", "bdi", ...).
	Name() string

	// CompressedSizeSegments returns the number of 8-byte segments the
	// 64-byte line occupies after compression, in [1, MaxSegments],
	// without materializing the encoding.
	CompressedSizeSegments(line []byte) int

	// AppendEncode appends the encoding of the 64-byte line to dst and
	// returns the extended slice plus the occupied size in segments
	// (identical to CompressedSizeSegments). The payload is padded to
	// whole segments; an incompressible line is appended raw.
	AppendEncode(dst, line []byte) ([]byte, int)

	// DecodeInto decompresses a stream produced by AppendEncode into
	// dst (>= LineSize bytes). It is strict: segs must agree with the
	// recomputed compressed size of the decoded line, the stream must
	// spend exactly its canonical bit/byte budget, and padding up to
	// the claimed segment boundary must be zero.
	DecodeInto(dst, enc []byte, segs int) error

	// DecompressionCycles is the codec's default decompression latency
	// in core cycles (sim.Config.DecompressionCycles when the codec is
	// selected without an explicit override). The value must map
	// exactly onto the integer tick domain (see timing.ExactCycles).
	DecompressionCycles() float64
}

// codecs holds the codecs in registration order, so Names and All are
// deterministic across processes (the bakeoff CSV row order and the
// experiment sweep order depend on it).
var codecs = registry.New[Codec]("codec", "codec", DefaultName)

func init() {
	for _, c := range []Codec{FPC{}, BDI{}, ZCA{}, CPack{}} {
		codecs.Add(c.Name(), c)
	}
}

// DefaultName is the simulator's default codec (the paper's).
const DefaultName = "fpc"

// Default returns the default codec (FPC).
func Default() Codec { return codecs.Must("") }

// Names lists the registered codec names in registration order.
func Names() []string { return codecs.Names() }

// All returns the registered codecs in registration order.
func All() []Codec {
	var out []Codec
	for _, name := range codecs.Names() {
		out = append(out, codecs.Must(name))
	}
	return out
}

// ByName resolves a codec by registry name. The empty string means the
// default codec, so config fields can leave "codec" unset.
func ByName(name string) (Codec, error) { return codecs.Get(name) }

// MustByName is ByName for known-good names.
func MustByName(name string) Codec { return codecs.Must(name) }

// segsForBytes converts an encoded byte length to the segment count,
// clamped to the raw-storage convention.
func segsForBytes(n int) int {
	segs := (n + SegmentSize - 1) / SegmentSize
	if segs < 1 {
		segs = 1
	}
	if segs >= MaxSegments {
		return MaxSegments
	}
	return segs
}

// segsForBits converts an encoded bit length to the segment count,
// clamped to the raw-storage convention.
func segsForBits(bits int) int {
	return segsForBytes((bits + 7) / 8)
}

// mustLine panics unless line is exactly LineSize bytes (a programming
// error, not a data error).
func mustLine(line []byte) {
	if len(line) != LineSize {
		panic("codec: line must be 64 bytes")
	}
}

// padSegments zero-pads the payload appended to dst since start out to
// segs whole segments.
func padSegments(dst []byte, start, segs int) []byte {
	for len(dst)-start < segs*SegmentSize {
		dst = append(dst, 0)
	}
	return dst
}

// beginDecode runs the checks every codec's DecodeInto shares: dst must
// hold a line, segs must lie in [1, MaxSegments], and enc must hold the
// claimed segments. A raw-stored line (segs == MaxSegments) is copied
// into dst and must really be incompressible under c; raw reports that
// case, so the caller decodes only compressed streams.
func beginDecode(c Codec, dst, enc []byte, segs int) (raw bool, err error) {
	name := c.Name()
	if len(dst) < LineSize {
		return false, fmt.Errorf("%s: destination holds %d bytes, need %d", name, len(dst), LineSize)
	}
	if segs < 1 || segs > MaxSegments {
		return false, fmt.Errorf("%s: invalid segment count %d", name, segs)
	}
	if len(enc) < segs*SegmentSize {
		return false, fmt.Errorf("%s: stream holds %d bytes, claimed %d segments need %d",
			name, len(enc), segs, segs*SegmentSize)
	}
	if segs < MaxSegments {
		return false, nil
	}
	copy(dst, enc[:LineSize])
	if got := c.CompressedSizeSegments(dst[:LineSize]); got != MaxSegments {
		return true, fmt.Errorf("%s: raw-stored line compresses to %d segments, not %d", name, got, MaxSegments)
	}
	return true, nil
}

// checkZeroPadding verifies that every bit of enc from bit offset bits
// up to the segs*SegmentSize boundary is zero — the strictness
// guarantee that trailing padding cannot smuggle extra codewords. enc
// must hold at least segs*SegmentSize bytes.
func checkZeroPadding(name string, enc []byte, bits, segs int) error {
	from := bits / 8
	if rem := uint(bits % 8); rem != 0 {
		if enc[from]&(1<<(8-rem)-1) != 0 {
			return fmt.Errorf("%s: non-zero padding bits in byte %d", name, from)
		}
		from++
	}
	for i := from; i < segs*SegmentSize; i++ {
		if enc[i] != 0 {
			return fmt.Errorf("%s: non-zero padding byte %#02x at offset %d", name, enc[i], i)
		}
	}
	return nil
}

package codec

import (
	"encoding/binary"
	"fmt"
)

// BDI implements Base-Delta-Immediate compression (Pekhimenko et al.,
// PACT 2012). A line is stored as one base value plus per-element
// deltas; each element is either a narrow delta from the base or a
// narrow immediate (a delta from the implicit second base, zero), with
// a per-element mask bit selecting which. The encoder tries every
// (base width, delta width) pair plus the zero-line and repeated-value
// special cases and picks the smallest.
//
// Encoded layout, byte-aligned:
//
//	header (1 byte: the bdiMode)
//	mask   (elements/8 bytes; delta modes only; bit i set = element i
//	       is a delta from the base, clear = immediate from zero)
//	base   (base-width bytes; delta modes only; the first element whose
//	       immediate does not fit, or zero if all fit)
//	deltas (elements × delta-width bytes, two's complement)
//
// followed by zero padding to a whole number of segments. A line no
// mode compresses below MaxSegments segments is stored raw.
type BDI struct{}

// bdiMode identifies one encoding; the value is the header byte.
type bdiMode uint8

const (
	bdiZero  bdiMode = iota // all-zero line: header only
	bdiRep8                 // line is one repeated 8-byte value
	bdiB8D1                 // 8-byte elements, 1-byte deltas
	bdiB4D1                 // 4-byte elements, 1-byte deltas
	bdiB8D2                 // 8-byte elements, 2-byte deltas
	bdiB2D1                 // 2-byte elements, 1-byte deltas
	bdiB4D2                 // 4-byte elements, 2-byte deltas
	bdiB8D4                 // 8-byte elements, 4-byte deltas
	bdiModes                // count; anything >= this is invalid
)

// bdiGeom returns (element width, delta width) for a delta mode.
func (m bdiMode) geom() (base, delta int) {
	switch m {
	case bdiB8D1:
		return 8, 1
	case bdiB4D1:
		return 4, 1
	case bdiB8D2:
		return 8, 2
	case bdiB2D1:
		return 2, 1
	case bdiB4D2:
		return 4, 2
	case bdiB8D4:
		return 8, 4
	default:
		panic("codec: bdiGeom on non-delta mode")
	}
}

// encodedBytes is the exact payload size of mode m before segment
// padding: the header, plus the repeated value, or plus mask, base and
// deltas.
func (m bdiMode) encodedBytes() int {
	switch m {
	case bdiZero:
		return 1
	case bdiRep8:
		return 1 + 8
	}
	base, delta := m.geom()
	elems := LineSize / base
	return 1 + elems/8 + base + elems*delta
}

// deltaModes lists the delta encodings cheapest-first; ties in byte
// size resolve to the earlier-listed mode, which is the canonical
// choice the strict decoder verifies.
var deltaModes = [...]bdiMode{bdiB8D1, bdiB4D1, bdiB8D2, bdiB2D1, bdiB4D2, bdiB8D4}

// fitsSigned reports whether v is representable as a width-byte
// two's-complement integer.
func fitsSigned(v int64, width int) bool {
	lim := int64(1) << (uint(width)*8 - 1)
	return v >= -lim && v < lim
}

// bdiElem reads the little-endian element i of width base from line.
func bdiElem(line []byte, base, i int) uint64 {
	switch base {
	case 8:
		return binary.LittleEndian.Uint64(line[i*8:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(line[i*4:]))
	default:
		return uint64(binary.LittleEndian.Uint16(line[i*2:]))
	}
}

// bdiPlan is the outcome of trying one delta mode on a line.
type bdiPlan struct {
	ok   bool
	base uint64 // first element whose immediate does not fit (0 if all fit)
	mask uint64 // bit i set: element i is a delta from base
}

// tryDelta checks whether every element of line fits mode m and
// returns the canonical plan: the base is the first element that is
// not a narrow immediate, each such element must then be a narrow
// delta from it.
func tryDelta(line []byte, m bdiMode) bdiPlan {
	base, delta := m.geom()
	elems := LineSize / base
	var p bdiPlan
	haveBase := false
	for i := 0; i < elems; i++ {
		e := bdiElem(line, base, i)
		if fitsSigned(signedAt(e, base), delta) {
			continue // immediate from the zero base
		}
		if !haveBase {
			p.base = e
			haveBase = true
		}
		if !fitsSigned(signedDelta(e, p.base, base), delta) {
			return bdiPlan{}
		}
		p.mask |= 1 << uint(i)
	}
	p.ok = true
	return p
}

// signedAt reinterprets the low base bytes of e as a signed value.
func signedAt(e uint64, base int) int64 {
	shift := uint(64 - base*8)
	return int64(e<<shift) >> shift
}

// signedDelta computes e - b within the base width, sign-extended.
func signedDelta(e, b uint64, base int) int64 {
	return signedAt(e-b, base)
}

// isZeroLine reports whether every byte of line is zero.
func isZeroLine(line []byte) bool {
	for _, b := range line {
		if b != 0 {
			return false
		}
	}
	return true
}

// rep8Value reports whether line is one repeated 8-byte value.
func rep8Value(line []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(line)
	for i := 8; i < LineSize; i += 8 {
		if binary.LittleEndian.Uint64(line[i:]) != v {
			return 0, false
		}
	}
	return v, true
}

// plan picks the canonical (cheapest) encoding for line.
func (BDI) plan(line []byte) (bdiMode, bdiPlan, int) {
	if isZeroLine(line) {
		return bdiZero, bdiPlan{ok: true}, bdiZero.encodedBytes()
	}
	if _, ok := rep8Value(line); ok {
		return bdiRep8, bdiPlan{ok: true}, bdiRep8.encodedBytes()
	}
	bestMode, bestPlan, bestBytes := bdiMode(0), bdiPlan{}, LineSize
	for _, m := range deltaModes {
		n := m.encodedBytes()
		if n >= bestBytes || segsForBytes(n) >= MaxSegments {
			continue
		}
		if p := tryDelta(line, m); p.ok {
			bestMode, bestPlan, bestBytes = m, p, n
		}
	}
	if !bestPlan.ok {
		return 0, bdiPlan{}, LineSize // raw
	}
	return bestMode, bestPlan, bestBytes
}

// Name returns the registry key.
func (BDI) Name() string { return "bdi" }

// CompressedSizeSegments returns the BDI size of the line in segments.
func (c BDI) CompressedSizeSegments(line []byte) int {
	mustLine(line)
	_, _, n := c.plan(line)
	return segsForBytes(n)
}

// AppendEncode appends the canonical BDI encoding of line to dst.
func (c BDI) AppendEncode(dst, line []byte) ([]byte, int) {
	mustLine(line)
	m, p, n := c.plan(line)
	segs := segsForBytes(n)
	if segs == MaxSegments {
		return append(dst, line...), MaxSegments
	}
	start := len(dst)
	dst = append(dst, byte(m))
	switch m {
	case bdiZero:
		// header only
	case bdiRep8:
		v, _ := rep8Value(line)
		dst = appendLE(dst, v, 8)
	default:
		base, delta := m.geom()
		elems := LineSize / base
		dst = appendLE(dst, p.mask, elems/8)
		dst = appendLE(dst, p.base, base)
		for i := 0; i < elems; i++ {
			e := bdiElem(line, base, i)
			if p.mask&(1<<uint(i)) != 0 {
				dst = appendLE(dst, e-p.base, delta)
			} else {
				dst = appendLE(dst, e, delta)
			}
		}
	}
	return padSegments(dst, start, segs), segs
}

// DecodeInto strictly decodes a BDI stream: the mode must be valid, the
// reconstructed line must re-plan to exactly the claimed mode and
// segment count, and the segment padding must be zero.
func (c BDI) DecodeInto(dst, enc []byte, segs int) error {
	if raw, err := beginDecode(c, dst, enc, segs); raw || err != nil {
		return err
	}
	dst = dst[:LineSize]
	m := bdiMode(enc[0])
	if m >= bdiModes {
		return fmt.Errorf("bdi: invalid mode byte %#02x", enc[0])
	}
	consumed := m.encodedBytes()
	if consumed > segs*SegmentSize {
		return fmt.Errorf("bdi: mode %d needs %d bytes, claimed %d segments hold %d",
			m, consumed, segs, segs*SegmentSize)
	}
	switch m {
	case bdiZero:
		clear(dst)
	case bdiRep8:
		v := binary.LittleEndian.Uint64(enc[1:9])
		for i := 0; i < LineSize; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
	default:
		base, delta := m.geom()
		elems := LineSize / base
		mask := readLE(enc[1:], elems/8)
		b := readLE(enc[1+elems/8:], base)
		off := 1 + elems/8 + base
		for i := 0; i < elems; i++ {
			d := uint64(signedAt(readLE(enc[off+i*delta:], delta), delta))
			if mask&(1<<uint(i)) != 0 {
				d += b
			}
			putLE(dst[i*base:], d, base)
		}
	}
	// Strictness: the decoded line must re-plan to exactly this mode
	// (canonical encoding) at exactly the claimed segment count.
	wantMode, _, wantBytes := c.plan(dst)
	if wantBytes != consumed || (segsForBytes(wantBytes) != MaxSegments && wantMode != m) {
		return fmt.Errorf("bdi: stream mode %d (%d bytes) is not the canonical encoding (mode %d, %d bytes)",
			m, consumed, wantMode, wantBytes)
	}
	if want := segsForBytes(wantBytes); want != segs {
		return fmt.Errorf("bdi: segment count %d disagrees with the line's compressed size %d", segs, want)
	}
	return checkZeroPadding("bdi", enc, consumed*8, segs)
}

// DecompressionCycles: BDI decompression is a masked vector add — one
// cycle in the original proposal.
func (BDI) DecompressionCycles() float64 { return 1 }

// appendLE appends the low width bytes of v, little-endian.
func appendLE(dst []byte, v uint64, width int) []byte {
	for i := 0; i < width; i++ {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}

// readLE reads width little-endian bytes as a uint64.
func readLE(b []byte, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}

// putLE stores the low width bytes of v, little-endian.
func putLE(b []byte, v uint64, width int) {
	for i := 0; i < width; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}

package codec

import (
	"encoding/binary"
	"fmt"
)

// ZCA implements zero-content / frequent-value line compression: the
// cheap end of Pekhimenko's taxonomy. Only two whole-line patterns
// compress — an all-zero line and a line that is one repeated 32-bit
// value — both to a single segment; everything else is stored raw.
// It models designs like Zero-Content Augmented caches (Dusser et al.)
// and single-entry frequent-value caches: near-zero decompression
// latency, but a compression ratio that collapses on data with any
// entropy. In the bakeoff it anchors the low-ratio/low-latency corner.
//
// Encoded layout: header byte (zcaZero or zcaValue), then for zcaValue
// the repeated 32-bit word, then zero padding to one segment.
type ZCA struct{}

const (
	zcaZero  = 0 // all-zero line
	zcaValue = 1 // one repeated non-zero 32-bit value
)

// zcaValueOf reports whether line is a single repeated 32-bit word.
func zcaValueOf(line []byte) (uint32, bool) {
	v := binary.LittleEndian.Uint32(line)
	for i := 4; i < LineSize; i += 4 {
		if binary.LittleEndian.Uint32(line[i:]) != v {
			return 0, false
		}
	}
	return v, true
}

// Name returns the registry key.
func (ZCA) Name() string { return "zca" }

// CompressedSizeSegments returns 1 for zero/repeated-value lines and
// MaxSegments otherwise.
func (ZCA) CompressedSizeSegments(line []byte) int {
	mustLine(line)
	if _, ok := zcaValueOf(line); ok {
		return 1
	}
	return MaxSegments
}

// AppendEncode appends the ZCA encoding of line to dst.
func (c ZCA) AppendEncode(dst, line []byte) ([]byte, int) {
	mustLine(line)
	v, ok := zcaValueOf(line)
	if !ok {
		return append(dst, line...), MaxSegments
	}
	start := len(dst)
	if v == 0 {
		dst = append(dst, zcaZero)
	} else {
		dst = append(dst, zcaValue)
		dst = appendLE(dst, uint64(v), 4)
	}
	return padSegments(dst, start, 1), 1
}

// DecodeInto strictly decodes a ZCA stream: only segment counts 1 and
// MaxSegments exist, the header must be canonical (a zero line must use
// zcaZero, not zcaValue with value 0), and padding must be zero.
func (c ZCA) DecodeInto(dst, enc []byte, segs int) error {
	if raw, err := beginDecode(c, dst, enc, segs); raw || err != nil {
		return err
	}
	dst = dst[:LineSize]
	if segs != 1 {
		return fmt.Errorf("zca: no encoding occupies %d segments", segs)
	}
	consumed := 1
	switch enc[0] {
	case zcaZero:
		clear(dst)
	case zcaValue:
		v := binary.LittleEndian.Uint32(enc[1:5])
		if v == 0 {
			return fmt.Errorf("zca: repeated-value encoding of zero (canonical form is the zero header)")
		}
		for i := 0; i < LineSize; i += 4 {
			binary.LittleEndian.PutUint32(dst[i:], v)
		}
		consumed = 5
	default:
		return fmt.Errorf("zca: invalid header byte %#02x", enc[0])
	}
	return checkZeroPadding("zca", enc, consumed*8, 1)
}

// DecompressionCycles: fanning a register out over the line is free
// relative to the L2 pipeline — one cycle.
func (ZCA) DecompressionCycles() float64 { return 1 }

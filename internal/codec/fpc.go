package codec

import (
	"encoding/binary"
	"fmt"
)

// FPC implements Frequent Pattern Compression (Alameldeen & Wood), the
// significance-based scheme the paper uses for both cache compression
// and link compression. It is the registry default: selecting it
// reproduces the paper's (ratio, latency) point bit-exactly.
//
// FPC compresses a line one 32-bit word at a time. Each word is encoded
// as a 3-bit prefix that identifies one of eight patterns, followed by
// the pattern's data bits:
//
//	prefix  pattern                                   data bits
//	000     run of 1-8 zero words                     3
//	001     4-bit sign-extended integer               4
//	010     8-bit sign-extended integer               8
//	011     16-bit sign-extended integer              16
//	100     16-bit value padded with a zero halfword  16
//	101     two halfwords, each an 8-bit s.e. int     16
//	110     word of four repeated bytes               8
//	111     uncompressed 32-bit word                  32
//
// The encoded bit length is rounded up to whole segments; a line that
// does not compress below MaxSegments is stored raw (no prefix
// overhead, no decompression penalty).
type FPC struct{}

// FPCPattern identifies one of the eight FPC word encodings.
type FPCPattern uint8

// The eight FPC patterns, in prefix order.
const (
	FPCZeroRun   FPCPattern = 0 // run of consecutive zero words
	FPCSE4       FPCPattern = 1 // 4-bit sign-extended
	FPCSE8       FPCPattern = 2 // 8-bit sign-extended
	FPCSE16      FPCPattern = 3 // 16-bit sign-extended
	FPCZeroPad16 FPCPattern = 4 // halfword padded with zero halfword
	FPCTwoSE8    FPCPattern = 5 // two halfwords, each byte sign-extended
	FPCRepByte   FPCPattern = 6 // four repeated bytes
	FPCUncomp    FPCPattern = 7 // uncompressed word
)

// String returns a short human-readable pattern name.
func (p FPCPattern) String() string {
	switch p {
	case FPCZeroRun:
		return "zero-run"
	case FPCSE4:
		return "se4"
	case FPCSE8:
		return "se8"
	case FPCSE16:
		return "se16"
	case FPCZeroPad16:
		return "zero-pad16"
	case FPCTwoSE8:
		return "two-se8"
	case FPCRepByte:
		return "rep-byte"
	case FPCUncomp:
		return "uncompressed"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// dataBits returns the number of data bits following the 3-bit prefix.
func (p FPCPattern) dataBits() int {
	switch p {
	case FPCZeroRun:
		return 3
	case FPCSE4:
		return 4
	case FPCSE8, FPCRepByte:
		return 8
	case FPCSE16, FPCZeroPad16, FPCTwoSE8:
		return 16
	case FPCUncomp:
		return 32
	default:
		panic("fpc: invalid pattern")
	}
}

const (
	fpcPrefixBits = 3
	fpcWords      = LineSize / 4
	fpcMaxRun     = 8 // zero words one zero-run codeword covers
)

// fpcClassify returns the cheapest pattern that can represent the
// non-zero word w (zero words are run-length coded by the caller).
func fpcClassify(w uint32) FPCPattern {
	s := int32(w)
	switch {
	case s >= -8 && s <= 7:
		return FPCSE4
	case s >= -128 && s <= 127:
		return FPCSE8
	case s >= -32768 && s <= 32767:
		return FPCSE16
	case w&0xFFFF == 0:
		return FPCZeroPad16
	case halfIsSE8(uint16(w>>16)) && halfIsSE8(uint16(w)):
		return FPCTwoSE8
	case isRepeatedBytes(w):
		return FPCRepByte
	default:
		return FPCUncomp
	}
}

// halfIsSE8 reports whether the halfword is an 8-bit sign-extended value.
func halfIsSE8(h uint16) bool {
	s := int16(h)
	return s >= -128 && s <= 127
}

// isRepeatedBytes reports whether all four bytes of w are equal.
func isRepeatedBytes(w uint32) bool {
	b := w & 0xFF
	return w == b|b<<8|b<<16|b<<24
}

// fpcZeroRun returns how many zero words (at most fpcMaxRun) start at word
// i of line, whose word i is zero.
func fpcZeroRun(line []byte, i int) int {
	run := 1
	for i+run < fpcWords && run < fpcMaxRun && binary.LittleEndian.Uint32(line[(i+run)*4:]) == 0 {
		run++
	}
	return run
}

// compressedBits is the size-only dry run: the exact encoded bit count
// for line, without materializing the stream.
func (FPC) compressedBits(line []byte) int {
	bits := 0
	for i := 0; i < fpcWords; {
		w := binary.LittleEndian.Uint32(line[i*4:])
		if w == 0 {
			bits += fpcPrefixBits + FPCZeroRun.dataBits()
			i += fpcZeroRun(line, i)
			continue
		}
		bits += fpcPrefixBits + fpcClassify(w).dataBits()
		i++
	}
	return bits
}

// Name returns the registry key.
func (FPC) Name() string { return "fpc" }

// CompressedSizeSegments returns the FPC size of the line in segments.
func (c FPC) CompressedSizeSegments(line []byte) int {
	mustLine(line)
	return segsForBits(c.compressedBits(line))
}

// AppendEncode appends the FPC bitstream of line to dst.
func (c FPC) AppendEncode(dst, line []byte) ([]byte, int) {
	segs := c.CompressedSizeSegments(line)
	if segs == MaxSegments {
		return append(dst, line...), MaxSegments
	}
	start := len(dst)
	bw := bitWriter{buf: dst}
	for i := 0; i < fpcWords; {
		w := binary.LittleEndian.Uint32(line[i*4:])
		if w == 0 {
			run := fpcZeroRun(line, i)
			bw.write(uint32(FPCZeroRun), fpcPrefixBits)
			bw.write(uint32(run-1), FPCZeroRun.dataBits())
			i += run
			continue
		}
		p := fpcClassify(w)
		bw.write(uint32(p), fpcPrefixBits)
		bw.write(fpcEncodeData(p, w), p.dataBits())
		i++
	}
	return padSegments(bw.buf, start, segs), segs
}

// fpcEncodeData extracts the data bits for pattern p from word w.
func fpcEncodeData(p FPCPattern, w uint32) uint32 {
	switch p {
	case FPCSE4:
		return w & 0xF
	case FPCSE8, FPCRepByte:
		return w & 0xFF
	case FPCSE16:
		return w & 0xFFFF
	case FPCZeroPad16:
		return w >> 16
	case FPCTwoSE8:
		return (w>>16&0xFF)<<8 | w&0xFF
	case FPCUncomp:
		return w
	default:
		panic("fpc: encodeData on zero-run")
	}
}

// fpcDecodeData reconstructs the full word from pattern p's data bits.
func fpcDecodeData(p FPCPattern, d uint32) uint32 {
	switch p {
	case FPCSE4:
		return signExtend(d, 4)
	case FPCSE8:
		return signExtend(d, 8)
	case FPCSE16:
		return signExtend(d, 16)
	case FPCZeroPad16:
		return d << 16
	case FPCTwoSE8:
		hi := signExtend(d>>8, 8) & 0xFFFF
		lo := signExtend(d&0xFF, 8) & 0xFFFF
		return hi<<16 | lo
	case FPCRepByte:
		b := d & 0xFF
		return b | b<<8 | b<<16 | b<<24
	case FPCUncomp:
		return d
	default:
		panic("fpc: decodeData on zero-run")
	}
}

// signExtend sign-extends the low n bits of v to 32 bits.
func signExtend(v uint32, n int) uint32 {
	shift := 32 - uint(n)
	return uint32(int32(v<<shift) >> shift)
}

// DecodeInto strictly decodes an FPC stream. Reads are bounded to the
// claimed segments, the decoded words must spend exactly the canonical
// bit count of the decoded line (a truncated stream cannot pass its
// zero padding off as extra zero-run codewords), that bit count must
// land on the claimed segment count, and the padding must be zero.
func (c FPC) DecodeInto(dst, enc []byte, segs int) error {
	if raw, err := beginDecode(c, dst, enc, segs); raw || err != nil {
		return err
	}
	dst = dst[:LineSize]
	clear(dst) // zero runs rely on it
	br := bitReader{buf: enc[:segs*SegmentSize]}
	for i := 0; i < fpcWords; {
		pv, err := br.read(fpcPrefixBits)
		if err != nil {
			return err
		}
		p := FPCPattern(pv)
		d, err := br.read(p.dataBits())
		if err != nil {
			return err
		}
		if p == FPCZeroRun {
			run := int(d) + 1
			if i+run > fpcWords {
				return fmt.Errorf("fpc: zero run of %d overflows line at word %d", run, i)
			}
			i += run // words already zero
			continue
		}
		binary.LittleEndian.PutUint32(dst[i*4:], fpcDecodeData(p, d))
		i++
	}
	bits := int(br.nbit)
	if want := c.compressedBits(dst); bits != want {
		return fmt.Errorf("fpc: stream spends %d bits where the canonical encoding of the decoded line spends %d",
			bits, want)
	}
	if want := segsForBits(bits); want != segs {
		return fmt.Errorf("fpc: segment count %d disagrees with the line's compressed size %d", segs, want)
	}
	return checkZeroPadding("fpc", enc, bits, segs)
}

// DecompressionCycles is the paper's Table 1 FPC pipeline: 5 cycles.
func (FPC) DecompressionCycles() float64 { return 5 }

// PatternHistogram counts, for analysis, how many words of the line fall
// into each pattern (zero-run words are counted individually).
func (FPC) PatternHistogram(line []byte) [8]int {
	mustLine(line)
	var h [8]int
	for i := 0; i < fpcWords; i++ {
		if w := binary.LittleEndian.Uint32(line[i*4:]); w == 0 {
			h[FPCZeroRun]++
		} else {
			h[fpcClassify(w)]++
		}
	}
	return h
}

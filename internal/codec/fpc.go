package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// fpcMasks sets m[i] to the pattern mask of line's word i: one bit per
// FPC pattern that can represent the word, bit p for FPCPattern p — bit
// FPCZeroRun for a zero word, bit FPCUncomp always. The patterns are
// numbered in preference order, so the lowest set bit is the pattern
// the encoder picks. Each test is a masked compare with zero read from
// the borrow bit, so no branch depends on the data: a word is k-bit
// sign-extended when its bits k-1 and up are all equal, that is when
// w^w<<1 has no bit at k or above.
func fpcMasks(line []byte, m *[fpcWords]uint8) {
	line = line[:LineSize]
	isZero := func(v uint64) uint64 { return (v - 1) >> 63 } // v < 2^63
	for i := range m {
		w := binary.LittleEndian.Uint32(line[i*4:])
		x, t := uint64(w), uint64(w^w<<1)
		m[i] = uint8(isZero(x)<<FPCZeroRun |
			isZero(t&0xFFFFFFF0)<<FPCSE4 |
			isZero(t&0xFFFFFF00)<<FPCSE8 |
			isZero(t&0xFFFF0000)<<FPCSE16 |
			isZero(x&0xFFFF)<<FPCZeroPad16 |
			isZero(t&0xFF00FF00)<<FPCTwoSE8 |
			isZero(x^(x&0xFF)*0x01010101)<<FPCRepByte |
			1<<FPCUncomp)
	}
}

// fpcPattern returns the pattern a word with mask m encodes as.
func fpcPattern(m uint8) FPCPattern { return FPCPattern(bits.TrailingZeros8(m)) }

// fpcWordBits is each pattern's codeword length for one word: prefix
// plus data bits. Zero words cost nothing here; their runs are counted
// separately.
var fpcWordBits = [8]uint8{
	FPCZeroRun:   0,
	FPCSE4:       fpcPrefixBits + 4,
	FPCSE8:       fpcPrefixBits + 8,
	FPCSE16:      fpcPrefixBits + 16,
	FPCZeroPad16: fpcPrefixBits + 16,
	FPCTwoSE8:    fpcPrefixBits + 16,
	FPCRepByte:   fpcPrefixBits + 8,
	FPCUncomp:    fpcPrefixBits + 32,
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
// for line, without materializing the stream. It is branch-free: each
// word's codeword length comes from fpcWordBits by its pattern mask, and
// the zero-run codewords from the line's zero-word mask — one per run
// start, plus one for a run longer than fpcMaxRun words (a line has room
// for at most one).
func (FPC) compressedBits(line []byte) int {
	var m [fpcWords]uint8
	fpcMasks(line, &m)
	n, zeros := 0, uint64(0)
	for i, mi := range m {
		zeros |= uint64(mi&1) << i
		n += int(fpcWordBits[fpcPattern(mi)&7])
	}
	// Bit i of run8 is set when words i..i+7 are all zero.
	run8 := zeros & (zeros >> 1)
	run8 &= run8 >> 2
	run8 &= run8 >> 4
	long := (0 - (run8 & (zeros >> fpcMaxRun))) >> 63
	runs := bits.OnesCount64(zeros&^(zeros<<1)) + int(long)
	return n + runs*(fpcPrefixBits+FPCZeroRun.dataBits())
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
	var m [fpcWords]uint8
	fpcMasks(line, &m)
	start := len(dst)
	bw := bitWriter{buf: dst}
	for i := 0; i < fpcWords; {
		p := fpcPattern(m[i])
		if p == FPCZeroRun {
			run := fpcZeroRun(line, i)
			bw.write(uint32(FPCZeroRun), fpcPrefixBits)
			bw.write(uint32(run-1), FPCZeroRun.dataBits())
			i += run
			continue
		}
		bw.write(uint32(p), fpcPrefixBits)
		bw.write(fpcEncodeData(p, binary.LittleEndian.Uint32(line[i*4:])), p.dataBits())
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
	var m [fpcWords]uint8
	fpcMasks(line, &m)
	var h [8]int
	for _, mi := range m {
		h[fpcPattern(mi)]++
	}
	return h
}

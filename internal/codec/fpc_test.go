package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestFPCAllZerosCompressesToOneSegment(t *testing.T) {
	var c FPC
	zero := make([]byte, LineSize)
	// 16 zero words = 2 runs of 8 = 2*(3+3) = 12 bits, 1 segment.
	if got := c.compressedBits(zero); got != 12 {
		t.Errorf("all-zero line: %d bits, want 12", got)
	}
	if got := c.CompressedSizeSegments(zero); got != 1 {
		t.Errorf("all-zero line: %d segments, want 1", got)
	}
}

func TestFPCSmallIntegersCompressWell(t *testing.T) {
	var c FPC
	// 16 words × (3+4) bits = 112 bits = 2 segments.
	se4 := lineOfWords(1, 2, 3, 7)
	if got := c.compressedBits(se4); got != 112 {
		t.Errorf("se4 line: %d bits, want 112", got)
	}
	if got := c.CompressedSizeSegments(se4); got != 2 {
		t.Errorf("se4 line: %d segments, want 2", got)
	}
}

func TestFPCRandomDataIsIncompressible(t *testing.T) {
	var c FPC
	rng := rand.New(rand.NewSource(42))
	line := make([]byte, LineSize)
	incompressible := 0
	for trial := 0; trial < 50; trial++ {
		rng.Read(line)
		if c.CompressedSizeSegments(line) == MaxSegments {
			incompressible++
		}
	}
	if incompressible < 45 {
		t.Errorf("only %d/50 random lines were incompressible", incompressible)
	}
}

// TestFPCRoundTripFixedPatterns pins the encoded size of one line per
// pattern class and checks that each line round-trips.
func TestFPCRoundTripFixedPatterns(t *testing.T) {
	cases := []struct {
		line []byte
		bits int
	}{
		{make([]byte, LineSize), 2 * (3 + 3)},                           // two zero runs of 8
		{lineOfWords(1), 16 * (3 + 4)},                                  // se4
		{lineOfWords(0xFFFFFFFF), 16 * (3 + 4)},                         // se4 (-1)
		{lineOfWords(0x7F, 0xFFFFFF80), 16 * (3 + 8)},                   // se8
		{lineOfWords(0x1234, 0xFFFF8000), 16 * (3 + 16)},                // se16
		{lineOfWords(0xDEAD0000), 16 * (3 + 16)},                        // zero-padded halfword
		{lineOfWords(0x007F00FF, 0xFF80FF80), 8 * (3 + 32 + 3 + 16)},    // uncompressed + two-se8
		{lineOfWords(0x55555555), 16 * (3 + 8)},                         // repeated bytes
		{lineOfWords(0x12345678, 0x9ABCDEF0), 16 * (3 + 32)},            // uncompressed: stored raw
		{lineOfWords(0, 1, 0, 0x12345678, 0, 0, 0, 0xABABABAB), 2 * 71}, // runs of 1 and 3 among patterns
	}
	var c FPC
	dec := make([]byte, LineSize)
	for i, tc := range cases {
		if got := c.compressedBits(tc.line); got != tc.bits {
			t.Errorf("line %d: %d bits, want %d", i, got, tc.bits)
		}
		enc, segs := c.AppendEncode(nil, tc.line)
		if want := segsForBits(tc.bits); segs != want {
			t.Errorf("line %d: %d segments, want %d", i, segs, want)
		}
		if len(enc) != segs*SegmentSize {
			t.Fatalf("line %d: encoding is %d bytes for %d segments", i, len(enc), segs)
		}
		if err := c.DecodeInto(dec, enc, segs); err != nil {
			t.Fatalf("line %d: decode: %v", i, err)
		}
		if !bytes.Equal(dec, tc.line) {
			t.Fatalf("line %d: round trip mismatch\n got %x\nwant %x", i, dec, tc.line)
		}
	}
}

func TestFPCClassify(t *testing.T) {
	cases := []struct {
		w    uint32
		want FPCPattern
	}{
		{1, FPCSE4},
		{0xFFFFFFFF, FPCSE4}, // -1
		{0xFFFFFFF8, FPCSE4}, // -8
		{100, FPCSE8},
		{0xFFFFFF80, FPCSE8}, // -128
		{1000, FPCSE16},
		{0xFFFF8000, FPCSE16}, // -32768
		{0x12340000, FPCZeroPad16},
		{0x007FFF80, FPCTwoSE8}, // 0x007F (127) and 0xFF80 (-128) are both SE8
		{0xABABABAB, FPCRepByte},
		{0x12345678, FPCUncomp},
	}
	for _, c := range cases {
		if got := fpcClassify(c.w); got != c.want {
			t.Errorf("fpcClassify(%#x) = %v, want %v", c.w, got, c.want)
		}
	}
}

// TestFPCZeroRunBoundaries checks that runs longer than 8 zero words
// split into several codewords and still round-trip.
func TestFPCZeroRunBoundaries(t *testing.T) {
	var c FPC
	dec := make([]byte, LineSize)
	for _, line := range [][]byte{
		make([]byte, LineSize), // 16 zeros = two runs of 8
		lineOfWords(0, 0, 0, 0, 0, 0, 0, 0, 0, 0x12345678, 0x12345678, // 9 zeros, then a tail
			0x12345678, 0x12345678, 0x12345678, 0x12345678, 0x12345678),
	} {
		enc, segs := c.AppendEncode(nil, line)
		if err := c.DecodeInto(dec, enc, segs); err != nil || !bytes.Equal(dec, line) {
			t.Fatalf("zero-run line %x: round trip failed: %v", line, err)
		}
	}
}

func TestFPCPatternHistogram(t *testing.T) {
	h := FPC{}.PatternHistogram(lineOfWords(0, 1, 0x12345678, 0xABABABAB))
	if h[FPCZeroRun] != 4 || h[FPCSE4] != 4 || h[FPCUncomp] != 4 || h[FPCRepByte] != 4 {
		t.Errorf("histogram = %v", h)
	}
}

func TestFPCPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendEncode on a short line should panic")
		}
	}()
	FPC{}.AppendEncode(nil, make([]byte, 32))
}

// TestFPCAppendEncodeKeepsPrefix checks that AppendEncode only appends:
// bytes already in dst survive, and the appended stream is the same one
// an empty dst receives.
func TestFPCAppendEncodeKeepsPrefix(t *testing.T) {
	var c FPC
	prefix := []byte{0xA5, 0x5A}
	for i, line := range testLines() {
		enc, segs := c.AppendEncode(nil, line)
		got, gotSegs := c.AppendEncode(append([]byte(nil), prefix...), line)
		if gotSegs != segs || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], enc) {
			t.Fatalf("line %d: AppendEncode onto a prefix gave %x (%d segs), want %x+%x (%d segs)",
				i, got, gotSegs, prefix, enc, segs)
		}
	}
}

// TestFPCDecodeStrictness pins the malformed streams a lenient FPC
// decoder used to accept.
func TestFPCDecodeStrictness(t *testing.T) {
	var c FPC
	dst := make([]byte, LineSize)

	// An all-zero 2-segment stream reads as 16 zero-run-of-1 codewords
	// (96 bits), although the canonical all-zero encoding is 12 bits in
	// 1 segment. Both the non-canonical spend and the wrong claimed size
	// must be rejected.
	if err := c.DecodeInto(dst, make([]byte, 2*SegmentSize), 2); err == nil {
		t.Error("all-zero 2-segment stream accepted (padding decoded as zero runs)")
	}

	line := lineOfWords(1, 2, 3, 7) // 2 segments
	enc, segs := c.AppendEncode(nil, line)

	// Reads are bounded by the claimed segment count even when the
	// slice is longer: a 2-segment stream claimed as 1 segment must fail
	// instead of reading past segs*64 bits.
	if err := c.DecodeInto(dst, enc, segs-1); err == nil {
		t.Error("2-segment stream accepted with claimed segs 1")
	}

	// Non-zero bits hidden in the padding must be rejected, not ignored.
	if enc[len(enc)-1] != 0 {
		t.Fatalf("expected zero padding at the tail of a %d-bit stream", c.compressedBits(line))
	}
	tampered := append([]byte(nil), enc...)
	tampered[len(tampered)-1] = 0x01
	if err := c.DecodeInto(dst, tampered, segs); err == nil {
		t.Error("non-zero padding bit accepted")
	}

	if err := c.DecodeInto(dst, enc, segs); err != nil {
		t.Fatalf("canonical stream rejected: %v", err)
	}
	if !bytes.Equal(dst, line) {
		t.Fatal("canonical stream decoded to the wrong line")
	}
}

// fpcBadStreams are streams the FPC decoder must reject.
var fpcBadStreams = []struct {
	name string
	enc  []byte
	segs int
}{
	{"segs 0", []byte{0x00}, 0},
	{"segs 9", []byte{0x00}, MaxSegments + 1},
	{"short raw payload", nil, MaxSegments},
	// One byte cannot hold 16 encoded words.
	{"truncated stream", []byte{0xFF}, 1},
}

func TestFPCDecodeErrors(t *testing.T) {
	out := make([]byte, LineSize)
	for _, bad := range fpcBadStreams {
		if err := (FPC{}).DecodeInto(out, bad.enc, bad.segs); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
}

// TestFPCDecodeIntoAfterErrors checks that failed decodes leave no state
// behind: the next valid stream decodes to exactly its line.
func TestFPCDecodeIntoAfterErrors(t *testing.T) {
	var c FPC
	out := make([]byte, LineSize)
	for _, bad := range fpcBadStreams {
		if err := c.DecodeInto(out, bad.enc, bad.segs); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
	line := lineOfWords(1, 2, 3)
	enc, segs := c.AppendEncode(nil, line)
	if err := c.DecodeInto(out, enc, segs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, line) {
		t.Fatal("DecodeInto after failures returned wrong contents")
	}
}

// TestFPCNoAllocs extends the registry-wide allocation gate to the
// FPC-only analysis API: with a reused buffer, the concrete codec's round
// trip, bit count and pattern histogram must not allocate.
func TestFPCNoAllocs(t *testing.T) {
	var c FPC
	lines := [][]byte{
		make([]byte, LineSize),
		lineOfWords(1, 2, 3, 7),
		lineOfWords(0, 1, 0x12340000, 0xABABABAB),
	}
	buf := make([]byte, 0, LineSize)
	var out [LineSize]byte
	allocs := testing.AllocsPerRun(200, func() {
		for _, line := range lines {
			var segs int
			buf, segs = c.AppendEncode(buf[:0], line)
			if err := c.DecodeInto(out[:], buf, segs); err != nil {
				t.Fatal(err)
			}
			if c.compressedBits(line) < 1 || c.PatternHistogram(line)[FPCUncomp] > fpcWords {
				t.Fatal("impossible size or histogram")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("FPC AppendEncode/DecodeInto/PatternHistogram allocated %.1f times per op", allocs)
	}
}

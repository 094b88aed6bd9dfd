package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cmpsim/internal/timing"
)

// lineOfWords builds a 64-byte line from 32-bit words, repeated
// cyclically.
func lineOfWords(words ...uint32) []byte {
	line := make([]byte, LineSize)
	for i := 0; i < LineSize/4; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], words[i%len(words)])
	}
	return line
}

// lineOfQwords builds a 64-byte line from 64-bit values, repeated
// cyclically.
func lineOfQwords(qs ...uint64) []byte {
	line := make([]byte, LineSize)
	for i := 0; i < LineSize/8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], qs[i%len(qs)])
	}
	return line
}

// wordGens returns word generators for synthetic lines: sparse (a few
// random words among zeros), small integers, a mix of FPC pattern
// classes, and integers of random bit width.
func wordGens(rng *rand.Rand) []func() uint32 {
	return []func() uint32{
		func() uint32 {
			if rng.Intn(4) == 0 {
				return rng.Uint32()
			}
			return 0
		},
		func() uint32 { return uint32(rng.Intn(256)) },
		func() uint32 {
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return uint32(int32(rng.Intn(16) - 8))
			case 2:
				return rng.Uint32() << 16
			case 3:
				return uint32(rng.Intn(256)) * 0x01010101
			default:
				return rng.Uint32()
			}
		},
		func() uint32 { return uint32(rng.Int63n(1 << uint(rng.Intn(33)))) },
	}
}

// genLine builds a line word by word from gen.
func genLine(gen func() uint32) []byte {
	l := make([]byte, LineSize)
	for i := 0; i < LineSize/4; i++ {
		binary.LittleEndian.PutUint32(l[i*4:], gen())
	}
	return l
}

// testLines returns a corpus spanning every codec's pattern classes
// plus seeded random lines, generated pattern mixes and mutations.
func testLines() [][]byte {
	rng := rand.New(rand.NewSource(20260808))
	lines := [][]byte{
		make([]byte, LineSize),                    // all zero
		lineOfWords(0xDEADBEEF),                   // repeated 32-bit value
		lineOfQwords(0x0102030405060708),          // repeated 64-bit value
		lineOfWords(1, 2, 3, 7),                   // 4-bit immediates
		lineOfWords(0x50, 0xFFFFFFA0, 0x31, 0x7F), // 8-bit immediates / zzzx
		lineOfWords(0x1234, 0xFFFF8000, 0x7FFF),   // 16-bit immediates
		lineOfWords(0x00010000, 0x7FFF0000),       // zero-padded halfwords
		lineOfWords(0x41414141, 0x42424242),       // repeated bytes
		lineOfQwords(0x00007FBC00001000, 0x00007FBC00001008,
			0x00007FBC00001010, 0x00007FBC00001018), // pointer array: base + 1-byte deltas
		lineOfWords(0x08001000, 0x08001004, 0x08001008, 0x0800100C), // 4-byte base + deltas
		lineOfWords(0xCAFE0001, 0xCAFE0002, 3, 0xCAFE0003),          // shared upper halfword + immediates
		lineOfWords(0xAABBCC01, 0xAABBCC02, 0xAABBCC03),             // shared upper 24 bits
		lineOfWords(0xFFFFFFFF),                                     // -1 everywhere
		lineOfWords(0x007F00FF, 0xFF80FF80),                         // two 8-bit halfwords
		lineOfWords(0x12345678, 0x9ABCDEF0),                         // incompressible words
		lineOfWords(0, 1, 0, 0x12345678, 0, 0, 0, 0xABABABAB),       // short zero runs between patterns
		lineOfWords(0, 0, 0, 0, 0, 0, 0, 0, 0, 0x12345678),          // zero run longer than 8 words
	}
	// Half-zero line.
	half := make([]byte, LineSize)
	rng.Read(half[:LineSize/2])
	lines = append(lines, half)
	// Full-entropy lines.
	for i := 0; i < 8; i++ {
		l := make([]byte, LineSize)
		rng.Read(l)
		lines = append(lines, l)
	}
	for _, gen := range wordGens(rng) {
		for n := 0; n < 16; n++ {
			lines = append(lines, genLine(gen))
		}
	}
	// Byte-level mutations of all of the above.
	base := len(lines)
	for i := 0; i < 100; i++ {
		l := append([]byte(nil), lines[rng.Intn(base)]...)
		for k := rng.Intn(4) + 1; k > 0; k-- {
			l[rng.Intn(LineSize)] = byte(rng.Intn(256))
		}
		lines = append(lines, l)
	}
	return lines
}

func TestRegistry(t *testing.T) {
	want := []string{"fpc", "bdi", "zca", "cpack"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if Default().Name() != DefaultName {
		t.Fatalf("Default() = %q, want %q", Default().Name(), DefaultName)
	}
	c, err := ByName("")
	if err != nil || c.Name() != DefaultName {
		t.Fatalf("ByName(\"\") = %v, %v; want the default codec", c, err)
	}
	if _, err := ByName("huffman"); err == nil {
		t.Fatal("ByName on an unknown codec did not fail")
	}
	if Canonical("") != DefaultName || Canonical("bdi") != "bdi" {
		t.Fatal("Canonical normalization wrong")
	}
	if len(All()) != len(want) {
		t.Fatalf("All() has %d codecs, want %d", len(All()), len(want))
	}
}

// TestRoundTrip drives the shared corpus through every codec:
// AppendEncode must agree with CompressedSizeSegments, stay within the
// segment bounds, pad to whole segments, and invert through DecodeInto.
func TestRoundTrip(t *testing.T) {
	for _, c := range All() {
		t.Run(c.Name(), func(t *testing.T) {
			dec := make([]byte, LineSize)
			for i, line := range testLines() {
				enc, segs := c.AppendEncode(nil, line)
				if segs < 1 || segs > MaxSegments {
					t.Fatalf("line %d: segment count %d out of range", i, segs)
				}
				if want := c.CompressedSizeSegments(line); segs != want {
					t.Fatalf("line %d: AppendEncode segs %d != CompressedSizeSegments %d", i, segs, want)
				}
				if want := segs * SegmentSize; len(enc) != want {
					t.Fatalf("line %d: encoding is %d bytes, want %d (%d segments)", i, len(enc), want, segs)
				}
				if err := c.DecodeInto(dec, enc, segs); err != nil {
					t.Fatalf("line %d: decode own encoding: %v", i, err)
				}
				if !bytes.Equal(dec, line) {
					t.Fatalf("line %d round trip mismatch:\n in  %x\n out %x", i, line, dec)
				}
			}
		})
	}
}

// checkProperty runs prop through testing/quick on fresh random seeds,
// once per registered codec, each in its own subtest.
func checkProperty(t *testing.T, count int, prop func(c Codec, rng *rand.Rand) bool) {
	for _, c := range All() {
		t.Run(c.Name(), func(t *testing.T) {
			f := func(seed int64) bool { return prop(c, rand.New(rand.NewSource(seed))) }
			if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRoundTripProperty checks that every codec inverts fully random and
// generated lines beyond the fixed corpus.
func TestRoundTripProperty(t *testing.T) {
	checkProperty(t, 500, func(c Codec, rng *rand.Rand) bool {
		gens := wordGens(rng)
		var line []byte
		if mode := rng.Intn(len(gens) + 1); mode < len(gens) {
			line = genLine(gens[mode])
		} else {
			line = make([]byte, LineSize)
			rng.Read(line)
		}
		enc, segs := c.AppendEncode(nil, line)
		dec := make([]byte, LineSize)
		return c.DecodeInto(dec, enc, segs) == nil && bytes.Equal(dec, line)
	})
}

// TestSizeOnlyPathMatchesEncode checks that every codec's size estimate
// agrees with the segment count AppendEncode reports, on lines mixing
// integers of random bit width with random words.
func TestSizeOnlyPathMatchesEncode(t *testing.T) {
	checkProperty(t, 300, func(c Codec, rng *rand.Rand) bool {
		width := wordGens(rng)[3]
		line := genLine(func() uint32 {
			if rng.Intn(2) == 0 {
				return width()
			}
			return rng.Uint32()
		})
		_, segs := c.AppendEncode(nil, line)
		return segs == c.CompressedSizeSegments(line)
	})
}

func TestSegmentsAlwaysInRange(t *testing.T) {
	checkProperty(t, 300, func(c Codec, rng *rand.Rand) bool {
		line := make([]byte, LineSize)
		rng.Read(line)
		s := c.CompressedSizeSegments(line)
		return s >= 1 && s <= MaxSegments
	})
}

// TestDecodeStrictness asserts every codec rejects wrong-segs,
// truncated and padding-tampered variants of its own valid streams.
func TestDecodeStrictness(t *testing.T) {
	for _, c := range All() {
		t.Run(c.Name(), func(t *testing.T) {
			dst := make([]byte, LineSize)
			for i, line := range testLines() {
				enc, segs := c.AppendEncode(nil, line)
				if err := c.DecodeInto(dst, enc[:len(enc)-1], segs); err == nil {
					t.Fatalf("line %d: truncated stream accepted", i)
				}
				if segs+1 < MaxSegments {
					padded := append(append([]byte(nil), enc...), make([]byte, SegmentSize)...)
					if err := c.DecodeInto(dst, padded, segs+1); err == nil {
						t.Fatalf("line %d: wrong segs %d accepted for a %d-segment stream", i, segs+1, segs)
					}
				}
				// A zero last byte is padding unless the codewords fill the
				// segments exactly; then tampering yields another line's
				// stream, which may decode, but never to the same line.
				if segs < MaxSegments && enc[len(enc)-1] == 0 {
					tampered := append([]byte(nil), enc...)
					tampered[len(tampered)-1] = 0x80
					if err := c.DecodeInto(dst, tampered, segs); err == nil && bytes.Equal(dst, line) {
						t.Fatalf("line %d: non-zero padding accepted", i)
					}
				}
			}
			// A compressible payload must not be accepted as raw storage.
			if err := c.DecodeInto(dst, make([]byte, LineSize), MaxSegments); err == nil {
				t.Fatal("all-zero line accepted as raw storage")
			}
			if err := c.DecodeInto(make([]byte, 8), make([]byte, LineSize), 1); err == nil {
				t.Fatal("short destination accepted")
			}
			if err := c.DecodeInto(dst, make([]byte, LineSize), 0); err == nil {
				t.Fatal("segs=0 accepted")
			}
			if err := c.DecodeInto(dst, make([]byte, LineSize), MaxSegments+1); err == nil {
				t.Fatalf("segs=%d accepted", MaxSegments+1)
			}
		})
	}
}

// TestCodecAllocFree is the allocation gate mirroring sim's
// TestStepAllocFree: with reused buffers, size/encode/decode must not
// allocate for any registered codec.
func TestCodecAllocFree(t *testing.T) {
	lines := testLines()
	for _, c := range All() {
		t.Run(c.Name(), func(t *testing.T) {
			buf := make([]byte, 0, LineSize)
			dec := make([]byte, LineSize)
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				line := lines[i%len(lines)]
				i++
				if c.CompressedSizeSegments(line) < 1 {
					t.Fatal("impossible size")
				}
				var segs int
				buf, segs = c.AppendEncode(buf[:0], line)
				if err := c.DecodeInto(dec, buf, segs); err != nil {
					t.Fatalf("decode: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s hot path allocated %.1f times per op, want 0", c.Name(), allocs)
			}
		})
	}
}

// TestDecompressionCyclesExact asserts every codec's default latency is
// representable exactly in the integer tick domain, as the Codec
// contract requires.
func TestDecompressionCyclesExact(t *testing.T) {
	for _, c := range All() {
		cy := c.DecompressionCycles()
		if cy < 0 {
			t.Errorf("%s: negative DecompressionCycles %g", c.Name(), cy)
		}
		if _, ok := timing.ExactCycles(cy); !ok {
			t.Errorf("%s: DecompressionCycles %g does not map exactly onto the tick domain", c.Name(), cy)
		}
	}
}

// TestBDIKnownSizes pins the per-mode encoded sizes so the geometry in
// encodedBytes cannot drift silently.
func TestBDIKnownSizes(t *testing.T) {
	cases := []struct {
		name string
		line []byte
		segs int
	}{
		{"zero", make([]byte, LineSize), 1},
		{"rep8", lineOfQwords(0x1122334455667788), 2}, // header + 8-byte value = 9 bytes
		{"b8d1", lineOfQwords(0x00007FBC00001000, 0x00007FBC00001008), 3},
		{"b4d1", lineOfWords(0x08001000, 0x08001004, 0x08001010, 0x08001044), 3},
		{"b8d2", lineOfQwords(0x4000000000001000, 0x4000000000002000), 4},
		{"b8d4", lineOfQwords(0x4000000000001000, 0x4000000001002000), 6},
		{"raw", nil, MaxSegments},
	}
	raw := make([]byte, LineSize)
	rand.New(rand.NewSource(3)).Read(raw)
	cases[len(cases)-1].line = raw
	var c BDI
	for _, tc := range cases {
		if got := c.CompressedSizeSegments(tc.line); got != tc.segs {
			t.Errorf("%s: %d segments, want %d", tc.name, got, tc.segs)
		}
	}
}

// TestZCAKnownSizes pins the two compressible ZCA patterns.
func TestZCAKnownSizes(t *testing.T) {
	var c ZCA
	if got := c.CompressedSizeSegments(make([]byte, LineSize)); got != 1 {
		t.Errorf("zero line: %d segments, want 1", got)
	}
	if got := c.CompressedSizeSegments(lineOfWords(0xDEADBEEF)); got != 1 {
		t.Errorf("repeated value: %d segments, want 1", got)
	}
	if got := c.CompressedSizeSegments(lineOfWords(1, 2, 3, 7)); got != MaxSegments {
		t.Errorf("se4 line: %d segments, want %d (zca has no narrow-int pattern)", got, MaxSegments)
	}
	// A zero value encoded with the repeated-value header is
	// non-canonical and must be rejected.
	enc := make([]byte, SegmentSize)
	enc[0] = zcaValue
	dst := make([]byte, LineSize)
	if err := c.DecodeInto(dst, enc, 1); err == nil {
		t.Error("zca accepted a repeated-value encoding of zero")
	}
}

// TestCPackKnownSizes pins representative C-Pack encodings: all-zero is
// 16×2 bits, a repeated word is one literal plus 15 full matches, and
// dictionary indices stay canonical (lowest slot).
func TestCPackKnownSizes(t *testing.T) {
	var c CPack
	if got := c.compressedBits(make([]byte, LineSize)); got != 32 {
		t.Errorf("zero line: %d bits, want 32", got)
	}
	// 1 literal (34 bits) + 15 full matches (6 bits each) = 124 bits,
	// which rounds to 16 bytes = 2 segments.
	if got := c.compressedBits(lineOfWords(0xDEADBEEF)); got != 34+15*6 {
		t.Errorf("repeated word: %d bits, want %d", got, 34+15*6)
	}
	if got := c.CompressedSizeSegments(lineOfWords(0xDEADBEEF)); got != 2 {
		t.Errorf("repeated word: %d segments, want 2", got)
	}
	// Low-byte-only words use zzzx and never touch the dictionary.
	if got := c.compressedBits(lineOfWords(0x50, 0x31)); got != 16*12 {
		t.Errorf("low-byte words: %d bits, want %d", got, 16*12)
	}
}

package codec

import (
	"bytes"
	"testing"
)

// fuzzRoundTrip is the shared property harness: any 64-byte line must
// encode with a size the estimator agrees on, decode back to itself,
// and fail to decode at a wrong segment count or truncated length.
func fuzzRoundTrip(f *testing.F, c Codec) {
	f.Add(make([]byte, LineSize))
	f.Add(bytes.Repeat([]byte{0xFF}, LineSize))
	f.Add(bytes.Repeat([]byte{0xEF, 0xBE, 0xAD, 0xDE}, LineSize/4))
	f.Add(bytes.Repeat([]byte{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}, LineSize/8))
	ramp := make([]byte, LineSize)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	f.Add(ramp)
	// Small sign-extendable words, repeated bytes and a halfword mix.
	f.Add(bytes.Repeat([]byte{0x00, 0x00, 0x00, 0x7F}, LineSize/4))
	f.Add(bytes.Repeat([]byte{0xAB, 0xAB, 0xAB, 0xAB}, LineSize/4))
	f.Add(bytes.Repeat([]byte{0xFF, 0xFE, 0x00, 0x01}, LineSize/4))

	f.Fuzz(func(t *testing.T, line []byte) {
		if len(line) != LineSize {
			t.Skip()
		}
		enc, segs := c.AppendEncode(nil, line)
		if segs < 1 || segs > MaxSegments {
			t.Fatalf("segment count %d out of range [1, %d]", segs, MaxSegments)
		}
		if want := c.CompressedSizeSegments(line); segs != want {
			t.Fatalf("AppendEncode segs %d != CompressedSizeSegments %d", segs, want)
		}
		if len(enc) != segs*SegmentSize {
			t.Fatalf("encoding is %d bytes for %d segments", len(enc), segs)
		}
		dec := make([]byte, LineSize)
		if err := c.DecodeInto(dec, enc, segs); err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if !bytes.Equal(dec, line) {
			t.Fatalf("round trip mismatch:\n in  %x\n out %x", line, dec)
		}
		if segs+1 < MaxSegments {
			padded := append(append([]byte(nil), enc...), make([]byte, SegmentSize)...)
			if err := c.DecodeInto(dec, padded, segs+1); err == nil {
				t.Fatalf("wrong segs %d accepted for a %d-segment stream", segs+1, segs)
			}
		}
		if err := c.DecodeInto(dec, enc[:len(enc)-1], segs); err == nil {
			t.Fatal("truncated stream accepted")
		}
	})
}

func FuzzFPCRoundTrip(f *testing.F)   { fuzzRoundTrip(f, FPC{}) }
func FuzzBDIRoundTrip(f *testing.F)   { fuzzRoundTrip(f, BDI{}) }
func FuzzZCARoundTrip(f *testing.F)   { fuzzRoundTrip(f, ZCA{}) }
func FuzzCPackRoundTrip(f *testing.F) { fuzzRoundTrip(f, CPack{}) }

// addFPCDecodeSeeds adds FPC's malformed-stream seeds: the canonical
// zero-line encoding, an empty stream, a 1-byte raw payload, an all-zero
// 2-segment stream (16 zero-run-of-1 codewords) and the canonical
// encoding zero-padded to claim one more segment.
func addFPCDecodeSeeds(f *testing.F) {
	enc, segs := FPC{}.AppendEncode(nil, make([]byte, LineSize))
	f.Add(enc, segs)
	f.Add([]byte{}, 1)
	f.Add([]byte{0xFF}, MaxSegments)
	f.Add(make([]byte, 2*SegmentSize), 2)
	f.Add(append(append([]byte(nil), enc...), make([]byte, SegmentSize)...), segs+1)
}

// fuzzDecode feeds arbitrary streams to each codec's strict decoder: it
// may reject them, but must never panic, and any stream it accepts must
// decode to a line whose recomputed size matches the claimed segment
// count.
func fuzzDecode(f *testing.F, codecs ...Codec) {
	f.Fuzz(func(t *testing.T, enc []byte, segs int) {
		dst := make([]byte, LineSize)
		for _, c := range codecs {
			if err := c.DecodeInto(dst, enc, segs); err != nil {
				continue
			}
			if want := c.CompressedSizeSegments(dst); want != segs {
				t.Fatalf("%s accepted segs %d but decoded line occupies %d segments", c.Name(), segs, want)
			}
			if _, got := c.AppendEncode(nil, dst); got != segs {
				t.Fatalf("%s accepted segs %d but re-encoding yields %d", c.Name(), segs, got)
			}
		}
	})
}

func FuzzFPCDecode(f *testing.F) {
	addFPCDecodeSeeds(f)
	fuzzDecode(f, FPC{})
}

// FuzzCodecDecode runs the decode harness over every registered codec.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add(make([]byte, SegmentSize), 1)
	f.Add(make([]byte, 2*SegmentSize), 2)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 1)
	f.Add(bytes.Repeat([]byte{0xA5}, LineSize), MaxSegments)
	addFPCDecodeSeeds(f)
	// A BDI repeated-value header in a 1-segment stream, too short for
	// the 8-byte value.
	f.Add(append([]byte{byte(bdiRep8)}, bytes.Repeat([]byte{'0'}, SegmentSize-1)...), 1)
	fuzzDecode(f, All()...)
}

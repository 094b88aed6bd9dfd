package codec

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// benchCorpus mixes the pattern classes so throughput numbers reflect a
// realistic blend rather than one branch of the encoder.
func benchCorpus() [][]byte {
	return testLines()
}

// BenchmarkCodecCompress measures size+encode throughput per codec
// (what compbench reports as the compress column).
func BenchmarkCodecCompress(b *testing.B) {
	corpus := benchCorpus()
	for _, c := range All() {
		b.Run(c.Name(), func(b *testing.B) {
			buf := make([]byte, 0, LineSize)
			b.SetBytes(LineSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = c.AppendEncode(buf[:0], corpus[i%len(corpus)])
			}
		})
	}
}

// sizeCorpusLines is BenchmarkCodecSize's corpus length: enough lines
// (1 MB) that no predictor learns them, a power of two for the index.
const sizeCorpusLines = 1 << 14

// sizeCorpus returns sizeCorpusLines fixed-seed lines whose words are
// drawn one at a time from the FPC pattern classes (zero, 4-, 8- and
// 16-bit sign-extended, zero-padded halfword, two 8-bit halfwords,
// repeated byte, random), the mix the workload data model synthesizes.
// Unlike the 190 testLines, a branch on a word's class mispredicts here
// as often as it would on simulated data.
func sizeCorpus() [][]byte {
	rng := rand.New(rand.NewSource(20261017))
	classes := []func(v uint32) uint32{
		func(uint32) uint32 { return 0 },
		func(v uint32) uint32 { return uint32(int32(v%16) - 8) },
		func(v uint32) uint32 { return uint32(int32(v%256) - 128) },
		func(v uint32) uint32 { return uint32(int32(v%65536) - 32768) },
		func(v uint32) uint32 { return v << 16 },
		func(v uint32) uint32 { return uint32(uint16(int8(v)))<<16 | uint32(uint16(int8(v>>8))) },
		func(v uint32) uint32 { return v & 0xFF * 0x01010101 },
		func(v uint32) uint32 { return v | 1<<31 },
	}
	lines := make([][]byte, sizeCorpusLines)
	for i := range lines {
		l := make([]byte, LineSize)
		for w := 0; w < LineSize/4; w++ {
			binary.LittleEndian.PutUint32(l[w*4:], classes[rng.Intn(len(classes))](rng.Uint32()))
		}
		lines[i] = l
	}
	return lines
}

// BenchmarkCodecSize measures the size-only path per codec, the one the
// simulator's data model calls, over sizeCorpus.
func BenchmarkCodecSize(b *testing.B) {
	corpus := sizeCorpus()
	for _, c := range All() {
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(LineSize)
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += c.CompressedSizeSegments(corpus[i&(sizeCorpusLines-1)])
			}
			if sum < b.N {
				b.Fatal("a line sized below one segment")
			}
		})
	}
}

// BenchmarkCodecDecompress measures strict-decode throughput per codec.
func BenchmarkCodecDecompress(b *testing.B) {
	corpus := benchCorpus()
	for _, c := range All() {
		b.Run(c.Name(), func(b *testing.B) {
			encs := make([][]byte, len(corpus))
			segs := make([]int, len(corpus))
			for i, line := range corpus {
				encs[i], segs[i] = c.AppendEncode(nil, line)
			}
			dst := make([]byte, LineSize)
			b.SetBytes(LineSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(corpus)
				if err := c.DecodeInto(dst, encs[k], segs[k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

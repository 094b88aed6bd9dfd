package workload

import (
	"fmt"
	"math"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
)

// knobBits is one pinned calibration: the Float64bits of the knob for
// seeds 1, 2 and 3.
type knobBits [3]uint64

// pinnedProfileKnobs pins every profile's knob under every codec.
var pinnedProfileKnobs = []struct {
	bench, codec string
	bits         knobBits
}{
	{"apache", "fpc", knobBits{0x3fe56dca1ac00000, 0x3fe5475e50c00000, 0x3fe5515e50c00000}},
	{"apache", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"apache", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"apache", "cpack", knobBits{0x3fe91bd3cf400000, 0x3fe91bd3cf400000, 0x3fe91bd3cf400000}},
	{"jbb", "fpc", knobBits{0x3fe91e21af400000, 0x3fe926d0d7c00000, 0x3fe9148e38c00000}},
	{"jbb", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"jbb", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"jbb", "cpack", knobBits{0x3fede66453400000, 0x3fede66453400000, 0x3fede66453400000}},
	{"oltp", "fpc", knobBits{0x3fe80b9306c00000, 0x3fe800167cc00000, 0x3fe80806eb400000}},
	{"oltp", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"oltp", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"oltp", "cpack", knobBits{0x3fec626298400000, 0x3fec626298400000, 0x3fec626298400000}},
	{"zeus", "fpc", knobBits{0x3fe4992453400000, 0x3fe48d2f28400000, 0x3fe4992453400000}},
	{"zeus", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"zeus", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"zeus", "cpack", knobBits{0x3fe82a9b6dc00000, 0x3fe82a9b6dc00000, 0x3fe82a9b6dc00000}},
	{"apsi", "fpc", knobBits{0x3fd5436bca800000, 0x3fd53977bd800000, 0x3fd520af28800000}},
	{"apsi", "bdi", knobBits{0x3fee670924c00000, 0x3fee670924c00000, 0x3fee670924c00000}},
	{"apsi", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"apsi", "cpack", knobBits{0x3fd6ef48a6800000, 0x3fd6ef48a6800000, 0x3fd6ef48a6800000}},
	{"art", "fpc", knobBits{0x3fdd80b3e4800000, 0x3fdd00bca1800000, 0x3fdd24435e800000}},
	{"art", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"art", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"art", "cpack", knobBits{0x3fe076dd67c00000, 0x3fe076dd67c00000, 0x3fe076dd67c00000}},
	{"fma3d", "fpc", knobBits{0x3fdecbaf28800000, 0x3fdecbaf28800000, 0x3fdec6286b800000}},
	{"fma3d", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"fma3d", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"fma3d", "cpack", knobBits{0x3fe1c62b3e400000, 0x3fe1c62b3e400000, 0x3fe1c62b3e400000}},
	{"mgrid", "fpc", knobBits{0x3fda7938e3800000, 0x3fda672aaa800000, 0x3fda762aaa800000}},
	{"mgrid", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"mgrid", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"mgrid", "cpack", knobBits{0x3fdd259b6d800000, 0x3fdd259b6d800000, 0x3fdd259b6d800000}},
	{"btree", "fpc", knobBits{0x3fe77afacfc00000, 0x3fe76effffc00000, 0x3fe75ec35e400000}},
	{"btree", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"btree", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"btree", "cpack", knobBits{0x3feb978aaac00000, 0x3feb978aaac00000, 0x3feb978aaac00000}},
	{"hashprobe", "fpc", knobBits{0x3fe6c37fffc00000, 0x3fe6c37fffc00000, 0x3fe6a55e50c00000}},
	{"hashprobe", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"hashprobe", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"hashprobe", "cpack", knobBits{0x3feae70db6c00000, 0x3feae70db6c00000, 0x3feae70db6c00000}},
	{"ptrchase", "fpc", knobBits{0x3fe5feca1ac00000, 0x3fe5fcb759c00000, 0x3fe601e38e400000}},
	{"ptrchase", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"ptrchase", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"ptrchase", "cpack", knobBits{0x3fea0e19f2400000, 0x3fea0e19f2400000, 0x3fea0e19f2400000}},
	{"srvmix", "fpc", knobBits{0x3fe56dca1ac00000, 0x3fe5475e50c00000, 0x3fe5515e50c00000}},
	{"srvmix", "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"srvmix", "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{"srvmix", "cpack", knobBits{0x3fe91bd3cf400000, 0x3fe91bd3cf400000, 0x3fe91bd3cf400000}},
}

// pinnedTargetKnobs pins the search's edges: the lowest target, the
// smallest ratio above it a profile uses, the largest target that still
// searches, and the cap, which returns 1 without searching.
var pinnedTargetKnobs = []struct {
	target float64
	codec  string
	bits   knobBits
}{
	{1, "fpc", knobBits{0x3e00000000000000, 0x3e00000000000000, 0x3e00000000000000}},
	{1, "bdi", knobBits{0x3e00000000000000, 0x3e00000000000000, 0x3e00000000000000}},
	{1, "zca", knobBits{0x3e00000000000000, 0x3e00000000000000, 0x3e00000000000000}},
	{1, "cpack", knobBits{0x3e00000000000000, 0x3e00000000000000, 0x3e00000000000000}},
	{1.01, "fpc", knobBits{0x3fd5436bca800000, 0x3fd53977bd800000, 0x3fd520af28800000}},
	{1.01, "bdi", knobBits{0x3fee670924c00000, 0x3fee670924c00000, 0x3fee670924c00000}},
	{1.01, "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{1.01, "cpack", knobBits{0x3fd6ef48a6800000, 0x3fd6ef48a6800000, 0x3fd6ef48a6800000}},
	{1.99, "fpc", knobBits{0x3fec504f91400000, 0x3fec7bd794400000, 0x3fec7bb5e5400000}},
	{1.99, "bdi", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{1.99, "zca", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{1.99, "cpack", knobBits{0x3fefffffffc00000, 0x3fefffffffc00000, 0x3fefffffffc00000}},
	{2, "fpc", knobBits{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
	{2, "bdi", knobBits{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
	{2, "zca", knobBits{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
	{2, "cpack", knobBits{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
}

// TestCalibrationKnobsPinned pins the calibrated knob bit for bit. The
// knob decides every synthesized block and so every size and metric
// downstream; a change to how the search prices its sample must leave
// all of them where they are.
func TestCalibrationKnobsPinned(t *testing.T) {
	check := func(what string, target float64, name string, want knobBits) {
		t.Helper()
		c := codec.MustByName(name)
		for i, w := range want {
			seed := uint64(i + 1)
			if got := math.Float64bits(CalibrateKnobCodec(target, seed, c)); got != w {
				t.Errorf("%s %s seed %d: knob bits %#x, want %#x", what, name, seed, got, w)
			}
		}
	}
	for _, k := range pinnedProfileKnobs {
		check(k.bench, MustByName(k.bench).TargetRatio, k.codec, k.bits)
	}
	for _, k := range pinnedTargetKnobs {
		check(fmt.Sprintf("target %g", k.target), k.target, k.codec, k.bits)
	}
}

// TestCalibrationWork bounds the lines one calibration synthesizes. A
// search step re-synthesizes only the lines holding a word whose class
// moved, about 13,400 over a whole search; re-synthesizing every line
// at every step would be 30 × 2048 = 61,440.
func TestCalibrationWork(t *testing.T) {
	const limit = 20_000
	for _, c := range codec.All() {
		for _, name := range []string{"zeus", "mgrid", "ptrchase"} {
			s := newPackSample(1, calibSamples, c)
			searchKnob(MustByName(name).TargetRatio, s)
			if s.synthesized > limit {
				t.Errorf("%s %s: one calibration synthesized %d lines, limit %d", name, c.Name(), s.synthesized, limit)
			}
		}
	}
}

// FuzzPackSample drives one pack sample through a fuzz-chosen sequence
// of knobs: repeats, halving search steps in either direction, and
// jumps. After every ratio call the ratio must equal a fresh sample's
// at that knob alone, and every kept size must equal the codec's size
// of the line synthesized afresh.
//
// Input: a seed, a codec index, a line count (1-256) and one op byte a
// step. Op 0 repeats the knob; ops 1-127 take a search step, down when
// the op is even and up when odd; ops 128-255 jump to (op-128)/127.
func FuzzPackSample(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(255), []byte{1, 2, 1, 0, 1, 2, 2, 0, 0, 1})
	f.Add(uint64(7), uint8(1), uint8(100), []byte{255, 128, 200, 0, 1, 1, 2})
	f.Add(uint64(42), uint8(2), uint8(7), []byte{0, 0, 3, 4, 5, 6, 170})
	f.Add(uint64(3), uint8(3), uint8(64), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 228, 2, 2, 2})
	// Two whole thirty-step searches over 256 lines, the second from a jump.
	f.Add(uint64(5), uint8(0), uint8(255), []byte{
		1, 2, 2, 1, 2, 1, 1, 2, 1, 2, 2, 2, 1, 1, 2, 1, 2, 1, 2, 2, 1, 1, 1, 2, 1, 2, 2, 1, 2, 1,
		128, 2, 1, 1, 2, 2, 1, 2, 1, 1, 1, 2, 2, 1, 2, 1, 2, 2, 1, 1, 2, 1, 2, 1, 1, 2, 2, 1, 2, 1})
	f.Fuzz(func(t *testing.T, seed uint64, ci, nb uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		all := codec.All()
		c := all[int(ci)%len(all)]
		n := int(nb) + 1
		s := newPackSample(seed, n, c)
		var line [cache.LineBytes]byte
		k, lo, hi := 0.5, 0.0, 1.0
		for step, op := range ops {
			switch {
			case op == 0:
			case op < 128:
				if op%2 == 0 {
					hi = k
				} else {
					lo = k
				}
				k = (lo + hi) / 2
			default:
				k, lo, hi = float64(op-128)/127, 0, 1
			}
			th := knobThresholds(k)
			got := s.ratio(&th)
			if want := newPackSample(seed, n, c).ratio(&th); got != want {
				t.Fatalf("step %d knob %g: ratio %v, fresh sample %v", step, k, got, want)
			}
			for i := range s.hashes {
				synthLine(&th, &s.hashes[i], line[:])
				if want := c.CompressedSizeSegments(line[:]); int(s.segs[i]) != want {
					t.Fatalf("step %d knob %g line %d: kept size %d, contents size %d", step, k, i, s.segs[i], want)
				}
			}
		}
	})
}

// BenchmarkCalibrateKnob times one uncached calibration, sample
// included, at zeus's target under each codec.
func BenchmarkCalibrateKnob(b *testing.B) {
	target := MustByName("zeus").TargetRatio
	for _, c := range codec.All() {
		b.Run(c.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchKnob = searchKnob(target, newPackSample(uint64(i), calibSamples, c))
			}
		})
	}
}

var benchKnob float64

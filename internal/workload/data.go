package workload

import (
	"encoding/binary"
	"math"
	"sync"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
)

// DataModel synthesizes deterministic 64-byte block contents whose
// compressibility under the selected codec matches a benchmark's
// Table 3 compression ratio. A block's contents are a pure function of
// (seed, address, version); stores may bump a block's version, changing
// its compressed size — the mechanism behind recompression on dirty
// writebacks.
//
// The value synthesizer draws words from FPC's pattern classes (the
// paper's codec); other codecs see the same value stream but price it
// with their own size function, so calibration converges on the knob
// that hits the target ratio as measured by that codec — or saturates
// below it if the codec cannot reach the target on this value mixture
// (e.g. zca on a profile with few all-zero lines).
type DataModel struct {
	seed  uint64
	codec codec.Codec
	// th holds the cumulative class thresholds over a 16-bit dial:
	// zero | se4 | se8 | se16 | repbyte | zeropad16 | random. A word's
	// class is the number of thresholds at or below its dial.
	th [6]uint32

	// memo is the size memo, an open-addressed table probed linearly
	// from a multiplicative hash. Each slot packs
	// address<<memoSegBits | segments; 0 segments means "not sized"
	// (Dirty clears them), and the all-zero word is an empty slot.
	memo      []uint64
	memoUsed  int  // occupied slots
	memoShift uint // 64 - log2(len(memo))

	versions map[cache.BlockAddr]uint32 // dirtied blocks only

	// poisonNext > 0 makes the next SizeOf calls memoize a deliberately
	// wrong size (fault injection: exercises the shadow FPC checker).
	poisonNext int

	lineBuf [cache.LineBytes]byte
}

const (
	memoSegBits = 4
	memoSegMask = 1<<memoSegBits - 1
	// memoLimit bounds the memoized addresses: one shifted left by
	// memoSegBits must still fit in a slot.
	memoLimit    = 1 << (64 - memoSegBits)
	memoMinBits  = 10 // log2 of the initial slot count
	memoGrowBits = 2  // log2 of the growth factor
)

// knobThresholds converts a compressibility knob c ∈ [0,1] into the
// cumulative category thresholds (zero | se4 | se8 | se16 | repbyte |
// zeropad16). At c=0 every word is random (incompressible); at c=1
// roughly 95% of words fall into FPC patterns.
func knobThresholds(c float64) [6]uint32 {
	const dial = 1 << 16
	var th [6]uint32
	cum := 0.0
	for i, p := range [6]float64{0.50, 0.12, 0.12, 0.10, 0.06, 0.05} {
		cum += p * c
		th[i] = uint32(cum * dial)
	}
	return th
}

// splitmix64 is the deterministic per-block hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewDataModelCodec builds a model calibrated so a full cache of its
// blocks reaches approximately the profile's TargetRatio (effective
// size over physical size, capped at 2.0 by the tag limit) under codec
// c: block sizes, calibration packing and the ratio estimators all use
// c's size function.
func NewDataModelCodec(p Profile, seed int64, c codec.Codec) *DataModel {
	knob := CalibrateKnobCodec(p.TargetRatio, uint64(seed), c)
	return newRawModel(knob, uint64(seed)*0x9E3779B97F4A7C15, c)
}

// newRawModel builds a model directly from a knob (calibration support).
func newRawModel(knob float64, seed uint64, c codec.Codec) *DataModel {
	d := &DataModel{
		seed:      seed,
		codec:     c,
		memo:      make([]uint64, 1<<memoMinBits),
		memoShift: 64 - memoMinBits,
		versions:  make(map[cache.BlockAddr]uint32),
		th:        knobThresholds(knob),
	}
	return d
}

// wordClass turns a word's 32 value bits val into one class's value:
// (val&mask)*mul + off, plus ifZero when val is zero.
type wordClass struct {
	mask, mul uint32
	off       int32
	ifZero    uint32
}

// wordClasses holds the value rule of each class, in dial order; the
// last entry pads the table to eight so a masked index needs no bounds
// check.
var wordClasses = [8]wordClass{
	{},                                             // zero
	{mask: 0xF, mul: 1, off: -8},                   // 4-bit sign-extended
	{mask: 0xFF, mul: 1, off: -128},                // 8-bit sign-extended
	{mask: 0xFFFF, mul: 1, off: -32768},            // 16-bit sign-extended
	{mask: 0xFF, mul: 0x01010101},                  // repeated byte
	{mask: 0xFFFF, mul: 1 << 16},                   // halfword padded with a zero halfword
	{mask: 0xFFFFFFFF, mul: 1, ifZero: 0xDEADBEEF}, // random, kept incompressible
}

// lineWords is the number of 32-bit words in a line.
const lineWords = cache.LineBytes / 4

// hashLine sets h[w] to the hash of word w of version ver of block a.
// Only the word index differs between a line's hash inputs, so the
// line's share is computed once.
func hashLine(seed uint64, a cache.BlockAddr, ver uint32, h *[lineWords]uint64) {
	base := seed ^ uint64(a)<<8 ^ uint64(ver)<<40
	for w := range h {
		h[w] = splitmix64(base ^ uint64(w))
	}
}

// synthLine writes the line whose word hashes are h into dst (≥ 64
// bytes) under the cumulative class thresholds th, and returns the
// words' classes, 3 bits each (word w's at bit 3w). The low 16 bits of a
// hash are the word's dial, and its class is the number of thresholds at
// or below the dial; the next 32 bits are the value bits the class's
// rule reads. No branch depends on the (random) dial or value.
func synthLine(th *[6]uint32, h *[lineWords]uint64, dst []byte) (classes uint64) {
	dst = dst[:cache.LineBytes]
	for w, hw := range h {
		dial := uint32(hw & 0xFFFF)
		val := uint32(hw >> 16)
		// (t - dial - 1) has bit 31 set exactly when t <= dial: both are
		// below 2^17, so the difference wraps only when negative.
		cls := (th[0]-dial-1)>>31 + (th[1]-dial-1)>>31 + (th[2]-dial-1)>>31 +
			(th[3]-dial-1)>>31 + (th[4]-dial-1)>>31 + (th[5]-dial-1)>>31
		c := &wordClasses[cls&7]
		v := (val&c.mask)*c.mul + uint32(c.off) + c.ifZero*uint32((uint64(val)-1)>>63)
		binary.LittleEndian.PutUint32(dst[w*4:], v)
		classes |= uint64(cls) << (3 * w)
	}
	return classes
}

// FillLine writes the block's current contents into dst (≥ 64 bytes).
func (d *DataModel) FillLine(a cache.BlockAddr, dst []byte) {
	var h [lineWords]uint64
	hashLine(d.seed, a, d.versions[a], &h)
	synthLine(&d.th, &h, dst)
}

// SizeOf returns the block's current compressed size in segments under
// the model's codec, memoized per version.
func (d *DataModel) SizeOf(a cache.BlockAddr) uint8 {
	i, found := -1, false
	if memoizable(a) {
		i, found = d.memoFind(a)
		// An empty slot reads as 0 segments, like an unsized one.
		if s := uint8(d.memo[i] & memoSegMask); s != 0 && d.poisonNext == 0 {
			return s
		}
	}
	d.FillLine(a, d.lineBuf[:])
	s := uint8(d.codec.CompressedSizeSegments(d.lineBuf[:]))
	if d.poisonNext > 0 {
		d.poisonNext--
		s = 9 - s // legal but wrong
	}
	switch {
	case found:
		d.memo[i] = uint64(a)<<memoSegBits | uint64(s)
	case i >= 0:
		d.memoInsert(i, a, s)
	}
	return s
}

// memoizable reports whether a has a memo slot. Address 0 would pack
// to the empty-slot word once Dirty cleared its size, and addresses at
// or above memoLimit do not fit beside the size bits; neither occurs in
// a simulated footprint, and since a size is a pure function of (seed,
// address, version) recomputing them on every call is exact.
func memoizable(a cache.BlockAddr) bool { return a-1 < memoLimit-1 }

// memoHome returns the slot a's probe chain starts at.
func (d *DataModel) memoHome(a cache.BlockAddr) int {
	return int(uint64(a) * 0x9E3779B97F4A7C15 >> d.memoShift)
}

// memoFind returns the slot holding a and true, or the empty slot that
// ends a's probe chain and false.
func (d *DataModel) memoFind(a cache.BlockAddr) (int, bool) {
	mask := len(d.memo) - 1
	for i := d.memoHome(a); ; i = (i + 1) & mask {
		s := d.memo[i]
		if s == 0 {
			return i, false
		}
		if s>>memoSegBits == uint64(a) {
			return i, true
		}
	}
}

// memoInsert stores a's size in the empty slot i that memoFind
// returned, quadrupling the table once it is three quarters full.
// Growing four-fold rather than two-fold lets a long run's table reach
// its final size early, so the run's live heap stays flat afterwards:
// a late step in live heap makes the run's peak memory depend on where
// the garbage collector's cycles happen to fall (DESIGN.md §6f).
func (d *DataModel) memoInsert(i int, a cache.BlockAddr, segs uint8) {
	d.memo[i] = uint64(a)<<memoSegBits | uint64(segs)
	d.memoUsed++
	if d.memoUsed*4 <= len(d.memo)*3 {
		return
	}
	old := d.memo
	d.memo = make([]uint64, len(old)<<memoGrowBits)
	d.memoShift -= memoGrowBits
	for _, s := range old {
		if s != 0 {
			j, _ := d.memoFind(cache.BlockAddr(s >> memoSegBits))
			d.memo[j] = s
		}
	}
}

// Dirty records a store that changed the block's contents: the version
// bumps and the memoized size is invalidated.
func (d *DataModel) Dirty(a cache.BlockAddr) {
	d.versions[a]++
	if memoizable(a) {
		if i, ok := d.memoFind(a); ok {
			d.memo[i] &^= memoSegMask
		}
	}
}

// Version returns the block's current content version: the number of
// Dirty calls it has received (audit support: the shadow value model
// cross-checks its own store count against this).
func (d *DataModel) Version(a cache.BlockAddr) uint32 { return d.versions[a] }

// ForEachVersion visits every block whose contents have ever been
// dirtied, with its current version. Iteration order is unspecified;
// fn must not mutate the model (audit sweep support).
func (d *DataModel) ForEachVersion(fn func(cache.BlockAddr, uint32)) {
	for a, v := range d.versions {
		fn(a, v)
	}
}

// PoisonNextSizes corrupts the size memo for the next n SizeOf calls:
// each memoizes a legal (1..8) but wrong segment count. Fault-injection
// support — proves the shadow FPC checker catches a size pipeline that
// disagrees with block contents.
func (d *DataModel) PoisonNextSizes(n int) { d.poisonNext = n }

// packSample is calibration's sample: version 0 of n consecutive blocks
// from 0x50000000. Calibration packs one sample at thirty knobs, and
// between two successive knobs of its binary search a word changes
// class only when its dial lies between a threshold's old and new
// value, which the halving step makes rarer each time. So the sample
// keeps every word's hash and each line's classes and size from the
// last knob, and runs the codec only on lines whose classes moved; a
// size is a pure function of the contents, so this is exact.
type packSample struct {
	codec   codec.Codec
	hashes  [][lineWords]uint64
	classes []uint64 // as synthLine returns them; ^0 (no line's) until sized
	segs    []uint8
}

func newPackSample(seed uint64, n int, c codec.Codec) *packSample {
	s := &packSample{
		codec:   c,
		hashes:  make([][lineWords]uint64, n),
		classes: make([]uint64, n),
		segs:    make([]uint8, n),
	}
	for i := range s.hashes {
		hashLine(seed, cache.BlockAddr(0x50000000+i), 0, &s.hashes[i])
		s.classes[i] = ^uint64(0)
	}
	return s
}

// ratio estimates the effective-size ratio the sample achieves under
// thresholds th by actually packing its lines into simulated sets of
// the compressed-L2 geometry (cache.DefaultTagsPerSet tags,
// cache.DefaultSegsPerSet segments — the same constants sim.NewConfig
// builds the cache with): lines are admitted until the tag or segment
// budget runs out, as the decoupled variable-segment cache does. This
// captures the packing-granularity loss the mean-based bound misses
// (e.g. four 7-segment lines leave 4 free segments that fit nothing).
func (s *packSample) ratio(th *[6]uint32) float64 {
	var buf [cache.LineBytes]byte
	totalLines, sets := 0, 0
	tags, segs := 0, 0
	for i := range s.hashes {
		if cls := synthLine(th, &s.hashes[i], buf[:]); cls != s.classes[i] {
			s.classes[i] = cls
			s.segs[i] = uint8(s.codec.CompressedSizeSegments(buf[:]))
		}
		n := int(s.segs[i])
		if tags+1 > cache.DefaultTagsPerSet || segs+n > cache.DefaultSegsPerSet {
			totalLines += tags
			sets++
			tags, segs = 0, 0
		}
		tags++
		segs += n
	}
	if sets == 0 {
		return 1
	}
	r := float64(totalLines) / float64(sets) / cache.DefaultLinesPerSet
	if r < 1 {
		r = 1
	}
	if r > cache.MaxEffectiveRatio {
		r = cache.MaxEffectiveRatio
	}
	return r
}

// calibCache memoizes CalibrateKnobCodec results. The binary search is pure
// in (targetRatio, seed, codec) and costs milliseconds of synthesis and
// compression, which would otherwise dominate every System construction;
// experiment sweeps build thousands of systems over a handful of
// profiles. sync.Map because scheduler workers construct systems
// concurrently.
var calibCache sync.Map

type calibKey struct {
	ratio float64
	seed  uint64
	codec string
}

// CalibrateKnobCodec binary-searches the compressibility knob whose
// expected compressed size under codec c yields the target
// effective-cache-size ratio; the memo is keyed per codec so two codecs
// never share a knob.
func CalibrateKnobCodec(targetRatio float64, seed uint64, c codec.Codec) float64 {
	if targetRatio <= 1.0 {
		// Ratio 1.0x means essentially incompressible, but keep a trace
		// of compressible lines so ratios like 1.01 are achievable.
		targetRatio = math.Max(targetRatio, 1.0)
	}
	if targetRatio >= cache.MaxEffectiveRatio {
		return 1.0
	}
	key := calibKey{targetRatio, seed, c.Name()}
	if v, ok := calibCache.Load(key); ok {
		return v.(float64)
	}
	const samples = 2048
	sample := newPackSample(seed, samples, c)
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 30; iter++ {
		mid := (lo + hi) / 2
		th := knobThresholds(mid)
		if sample.ratio(&th) < targetRatio {
			lo = mid
		} else {
			hi = mid
		}
	}
	v, _ := calibCache.LoadOrStore(key, (lo+hi)/2)
	return v.(float64)
}

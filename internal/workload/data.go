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
// cumulative category thresholds. At c=0 every word is random
// (incompressible); at c=1 roughly 95% of words fall into FPC patterns.
func knobThresholds(c float64) (z, s4, s8, s16, rep, pad uint32) {
	const dial = 1 << 16
	cum := 0.0
	step := func(p float64) uint32 {
		cum += p * c
		return uint32(cum * dial)
	}
	z = step(0.50)
	s4 = step(0.12)
	s8 = step(0.12)
	s16 = step(0.10)
	rep = step(0.06)
	pad = step(0.05)
	return
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
	}
	d.th[0], d.th[1], d.th[2], d.th[3], d.th[4], d.th[5] = knobThresholds(knob)
	return d
}

// synthWord produces the w-th 32-bit word of a block's contents. The
// thresholds are cumulative, so the number of them at or below the
// dial is the class the first failing "dial < threshold" test would
// pick; every class's value is computed and the class indexes them, so
// no branch depends on the (random) dial.
func (d *DataModel) synthWord(a cache.BlockAddr, ver uint32, w int) uint32 {
	h := splitmix64(d.seed ^ uint64(a)<<8 ^ uint64(ver)<<40 ^ uint64(w))
	dial := uint32(h & 0xFFFF)
	val := uint32(h >> 16)
	// (t - dial - 1) has bit 31 set exactly when t <= dial: both are
	// below 2^17, so the difference wraps only when negative.
	cls := (d.th[0]-dial-1)>>31 + (d.th[1]-dial-1)>>31 + (d.th[2]-dial-1)>>31 +
		(d.th[3]-dial-1)>>31 + (d.th[4]-dial-1)>>31 + (d.th[5]-dial-1)>>31
	random := val
	if random == 0 {
		random = 0xDEADBEEF // keep the random class incompressible
	}
	words := [8]uint32{
		0,
		uint32(int32(val%16) - 8),
		uint32(int32(val%256) - 128),
		uint32(int32(val%65536) - 32768),
		val & 0xFF * 0x01010101, // repeated byte
		val << 16,
		random,
	}
	return words[cls&7]
}

// FillLine writes the block's current contents into dst (≥ 64 bytes).
func (d *DataModel) FillLine(a cache.BlockAddr, dst []byte) {
	ver := d.versions[a]
	for w := 0; w < cache.LineBytes/4; w++ {
		binary.LittleEndian.PutUint32(dst[w*4:], d.synthWord(a, ver, w))
	}
}

// Line returns a copy of the block's current 64-byte contents.
func (d *DataModel) Line(a cache.BlockAddr) []byte {
	out := make([]byte, cache.LineBytes)
	d.FillLine(a, out)
	return out
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

// PackedRatio estimates the achieved effective-size ratio by actually
// packing n sample lines into simulated sets of the compressed-L2
// geometry (cache.DefaultTagsPerSet tags, cache.DefaultSegsPerSet
// segments — the same constants sim.NewConfig builds the cache with):
// lines are admitted until the tag or segment budget runs out, as the
// decoupled variable-segment cache does. This captures the
// packing-granularity loss the mean-based bound misses (e.g. four
// 7-segment lines leave 4 free segments that fit nothing).
func (d *DataModel) PackedRatio(n int) float64 {
	var buf [cache.LineBytes]byte
	totalLines, sets := 0, 0
	tags, segs := 0, 0
	for i := 0; i < n; i++ {
		a := cache.BlockAddr(0x50000000 + i)
		for w := 0; w < cache.LineBytes/4; w++ {
			binary.LittleEndian.PutUint32(buf[w*4:], d.synthWord(a, 0, w))
		}
		s := d.codec.CompressedSizeSegments(buf[:])
		if tags+1 > cache.DefaultTagsPerSet || segs+s > cache.DefaultSegsPerSet {
			totalLines += tags
			sets++
			tags, segs = 0, 0
		}
		tags++
		segs += s
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
// in (targetRatio, seed) and costs tens of milliseconds of synthesis
// and FPC compression, which would otherwise dominate every System
// construction; experiment sweeps build thousands of systems over a
// handful of profiles. sync.Map because scheduler workers construct
// systems concurrently.
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
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 30; iter++ {
		mid := (lo + hi) / 2
		m := newRawModel(mid, seed, c)
		r := m.PackedRatio(samples)
		if r < targetRatio {
			lo = mid
		} else {
			hi = mid
		}
	}
	v, _ := calibCache.LoadOrStore(key, (lo+hi)/2)
	return v.(float64)
}

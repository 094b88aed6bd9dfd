package workload

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
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

	// shared, when set, holds the version-0 sizes of every model with
	// this one's (seed, knob, codec) (SizeRegistry). The memo then holds
	// only the blocks the table cannot answer for: dirtied ones, and
	// clean ones whose page the table could not take.
	shared *sizeTable
	counts SizeCounts

	// poisonNext > 0 makes the next SizeOf calls memoize a deliberately
	// wrong size (fault injection: exercises the shadow FPC checker).
	poisonNext int

	lineBuf [cache.LineBytes]byte
}

// SizeCounts tallies where a data model's sizes came from.
type SizeCounts struct {
	Shared   uint64 // served from the shared version-0 table
	Computed uint64 // synthesized and priced by the codec
	Evicted  uint64 // shared tables evicted to make room for this model's
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
	return NewDataModelShared(p, seed, c, nil)
}

// NewDataModelShared is NewDataModelCodec for a model that reads and
// writes the version-0 sizes of reg's table for its (seed, knob, codec);
// with a nil reg every size stays private. Sharing never changes a size:
// a block's version-0 contents are a pure function of that key and its
// address.
func NewDataModelShared(p Profile, seed int64, c codec.Codec, reg *SizeRegistry) *DataModel {
	knob := CalibrateKnobCodec(p.TargetRatio, uint64(seed), c)
	d := newRawModel(knob, uint64(seed)*0x9E3779B97F4A7C15, c)
	if reg != nil {
		t, evicted := reg.table(sizeKey{uint64(seed), math.Float64bits(knob), c.Name()})
		d.counts.Evicted += uint64(evicted)
		d.shared = t
	}
	return d
}

// SizeCounts reports where the model's sizes have come from so far.
func (d *DataModel) SizeCounts() SizeCounts { return d.counts }

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
// bytes) under the cumulative class thresholds th. The low 16 bits of a
// hash are the word's dial, and its class is the number of thresholds at
// or below the dial; the next 32 bits are the value bits the class's
// rule reads. No branch depends on the (random) dial or value.
func synthLine(th *[6]uint32, h *[lineWords]uint64, dst []byte) {
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
	}
}

// FillLine writes the block's current contents into dst (≥ 64 bytes).
func (d *DataModel) FillLine(a cache.BlockAddr, dst []byte) {
	var h [lineWords]uint64
	hashLine(d.seed, a, d.versions[a], &h)
	synthLine(&d.th, &h, dst)
}

// price synthesizes version ver of block a and returns its size under
// the model's codec.
func (d *DataModel) price(a cache.BlockAddr, ver uint32) uint8 {
	var h [lineWords]uint64
	hashLine(d.seed, a, ver, &h)
	synthLine(&d.th, &h, d.lineBuf[:])
	d.counts.Computed++
	return uint8(d.codec.CompressedSizeSegments(d.lineBuf[:]))
}

// SizeOf returns the block's current compressed size in segments under
// the model's codec, memoized per version.
func (d *DataModel) SizeOf(a cache.BlockAddr) uint8 {
	if d.shared != nil {
		return d.sharedSizeOf(a)
	}
	i, found := -1, false
	if memoizable(a) {
		i, found = d.memoFind(a)
		// An empty slot reads as 0 segments, like an unsized one.
		if s := uint8(d.memo[i] & memoSegMask); s != 0 && d.poisonNext == 0 {
			return s
		}
	}
	s := d.price(a, d.versions[a])
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

// sharedSizeOf is SizeOf with a shared table. The memo, which holds
// few blocks, answers for the dirtied ones; a miss there, usually one
// load of an empty slot, proves a block clean, and its size costs one
// lock-free probe of the shared table, plus, on a miss, pricing version
// 0 and publishing it there (or keeping it in the memo if the table
// cannot take its page). Addresses without a memo slot are priced
// afresh, as in SizeOf.
func (d *DataModel) sharedSizeOf(a cache.BlockAddr) uint8 {
	if !memoizable(a) {
		return d.price(a, d.versions[a])
	}
	i, found := d.memoFind(a)
	if found {
		s := uint8(d.memo[i] & memoSegMask)
		if s == 0 {
			s = d.price(a, d.versions[a])
			d.memo[i] |= uint64(s)
		}
		return s
	}
	if s := d.shared.lookup(a); s != 0 {
		d.counts.Shared++
		return s
	}
	s := d.price(a, 0)
	ok, evicted := d.shared.store(a, s)
	d.counts.Evicted += uint64(evicted)
	if !ok {
		// The table has no room for a's page: the memo keeps the size,
		// so the block is priced once per run, as without a table.
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
// bumps and the memoized size is invalidated. With a shared table, the
// block's first store also gives it an (unsized) memo slot, since its
// size is no longer version 0's.
func (d *DataModel) Dirty(a cache.BlockAddr) {
	d.versions[a]++
	if !memoizable(a) {
		return
	}
	i, found := d.memoFind(a)
	switch {
	case found:
		d.memo[i] &^= memoSegMask
	case d.shared != nil:
		d.memoInsert(i, a, 0)
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
// disagrees with block contents. A poisoned model detaches from its
// shared table first, so a wrong size never reaches another model, and
// keeps every later size in its own memo.
func (d *DataModel) PoisonNextSizes(n int) {
	d.shared = nil
	d.poisonNext = n
}

// packSample is calibration's sample: version 0 of n consecutive blocks
// from 0x50000000. Calibration packs one sample at thirty knobs. A
// word's class is the number of thresholds at or below its dial, so
// when the thresholds move from th to th′ a word changes class exactly
// when its dial lies in [min(thᵢ, th′ᵢ), max(thᵢ, th′ᵢ)) for some i;
// a line none of whose words did keeps its contents, and so its size.
// The sample therefore keeps every word's hash, each line's size at the
// last thresholds, and an index of all its words in dial order, and
// re-synthesizes and re-prices only the lines of the words whose dials
// the thresholds crossed. A size is a pure function of the contents,
// so this is exact.
type packSample struct {
	codec  codec.Codec
	hashes [][lineWords]uint64
	segs   []uint8 // each line's size at th
	// dials holds every word's dial<<16 | line, in ascending dial order.
	dials  []uint32
	th     [6]uint32 // the thresholds segs were priced at
	priced bool      // segs holds sizes (the first ratio call prices every line)
	moved  []uint64  // bitset of the lines to re-price, clear between calls
	buf    [cache.LineBytes]byte
	// synthesized counts the lines synthesized so far (work guard).
	synthesized int
}

// newPackSample builds the sample of n lines; n is at most 2^16, so a
// line index fits beside a dial in one dials entry.
func newPackSample(seed uint64, n int, c codec.Codec) *packSample {
	s := &packSample{
		codec:  c,
		hashes: make([][lineWords]uint64, n),
		segs:   make([]uint8, n),
		dials:  make([]uint32, 0, n*lineWords),
		moved:  make([]uint64, (n+63)/64),
	}
	for i := range s.hashes {
		hashLine(seed, cache.BlockAddr(0x50000000+i), 0, &s.hashes[i])
		for _, h := range s.hashes[i] {
			s.dials = append(s.dials, uint32(h&0xFFFF)<<16|uint32(i))
		}
	}
	sortByDial(s.dials)
	return s
}

// sortByDial sorts keys (dial<<16 | line) by dial in two stable counting
// passes, on the dial's low byte and then its high byte.
func sortByDial(keys []uint32) {
	tmp := make([]uint32, len(keys))
	for _, shift := range [2]uint{16, 24} {
		var next [257]int // next[b+1] counts byte b, then next[b] is b's next slot
		for _, k := range keys {
			next[k>>shift&0xFF+1]++
		}
		for b := 1; b < len(next); b++ {
			next[b] += next[b-1]
		}
		for _, k := range keys {
			b := k >> shift & 0xFF
			tmp[next[b]] = k
			next[b]++
		}
		keys, tmp = tmp, keys
	}
}

// reprice re-synthesizes line i under th and prices it.
func (s *packSample) reprice(i int, th *[6]uint32) {
	synthLine(th, &s.hashes[i], s.buf[:])
	s.segs[i] = uint8(s.codec.CompressedSizeSegments(s.buf[:]))
	s.synthesized++
}

// ratio estimates the effective-size ratio the sample achieves under
// thresholds th by actually packing its lines into simulated sets of
// the compressed-L2 geometry (cache.DefaultTagsPerSet tags,
// cache.DefaultSegsPerSet segments — the same constants sim.NewConfig
// builds the cache with): lines are admitted until the tag or segment
// budget runs out, as the decoupled variable-segment cache does. This
// captures the packing-granularity loss the mean-based bound misses
// (e.g. four 7-segment lines leave 4 free segments that fit nothing).
// Only lines whose words changed class since the last call are
// re-priced; every line is packed.
func (s *packSample) ratio(th *[6]uint32) float64 {
	if !s.priced {
		for i := range s.hashes {
			s.reprice(i, th)
		}
		s.priced = true
	} else {
		for k, t := range th {
			lo, hi := min(s.th[k], t), max(s.th[k], t)
			i := sort.Search(len(s.dials), func(j int) bool { return s.dials[j]>>16 >= lo })
			for ; i < len(s.dials) && s.dials[i]>>16 < hi; i++ {
				line := s.dials[i] & 0xFFFF
				s.moved[line/64] |= 1 << (line % 64)
			}
		}
		for w, m := range s.moved {
			for ; m != 0; m &= m - 1 {
				s.reprice(w*64+bits.TrailingZeros64(m), th)
			}
			s.moved[w] = 0
		}
	}
	s.th = *th
	totalLines, sets := 0, 0
	tags, segs := 0, 0
	for _, n := range s.segs {
		if tags+1 > cache.DefaultTagsPerSet || segs+int(n) > cache.DefaultSegsPerSet {
			totalLines += tags
			sets++
			tags, segs = 0, 0
		}
		tags++
		segs += int(n)
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

// calibSamples is the number of sample lines a calibration packs.
const calibSamples = 2048

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
	v, _ := calibCache.LoadOrStore(key, searchKnob(targetRatio, newPackSample(seed, calibSamples, c)))
	return v.(float64)
}

// searchKnob is CalibrateKnobCodec's search on sample s, without the
// memo: thirty halving steps over [0, 1].
func searchKnob(targetRatio float64, s *packSample) float64 {
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 30; iter++ {
		mid := (lo + hi) / 2
		th := knobThresholds(mid)
		if s.ratio(&th) < targetRatio {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

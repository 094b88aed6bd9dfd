package cache

import "fmt"

// L2 names the shared second-level cache the coherence hierarchy and
// the simulation engine drive. One type serves both the compressed L2
// and the uncompressed baseline.
type L2 = *Compressed

// Compressed is the decoupled variable-segment cache of Alameldeen &
// Wood: each set has more address tags than uncompressed-line data
// capacity, and the set's data space is divided into 8-byte segments.
// A compressed line occupies 1..7 segments, an uncompressed line 8.
// With the paper's configuration (8 tags, data space for 4 uncompressed
// lines = 32 segments) compression can at most double the capacity,
// raising effective associativity from 4-way to 8-way.
//
// Invalid tags retain the address of the line that last occupied them,
// providing the "extra address tags" that the adaptive prefetching
// mechanism uses to detect harmful prefetches.
//
// Built plain by NewUncompressedL2, with one tag per way and every line
// stored at MaxSegs, it is the conventional set-associative write-back
// L2 with true LRU replacement. A fill then evicts only from a full set
// and reclaims the freed tag at once, so no victim history persists in
// the tags. An optional per-set FIFO records the replaced addresses
// instead: the four extra tags per set that paper §5.4 gives the
// adaptive prefetcher when compression is off.
//
// Note on the paper's parameters: §2 states both "data space for 4
// uncompressed lines ... 8 address tags" and "64 8-byte segments" per
// set; the two are inconsistent (4 × 64 B = 32 segments). We follow the
// capacity statement ("compression can at most double the capacity",
// "4-way to 8-way"), i.e. 32 segments per set, which also matches the
// decoupled variable-segment cache of the ISCA 2004 paper.
//
// A tag is 10 bytes of storage: a tag word and a tagMeta entry. It
// keeps no sharer bits: the L1s themselves are the directory
// (internal/coherence probes them). Set si's tag words, ordered MRU
// first, are blocks[si*tags:][:tags], so at the paper's 8 tags a set
// is 64 bytes, one host cache line; meta holds the set's entries in
// the same order. Lookups, free-tag tests and victim matches scan only
// the tag words, and a touch rotates both runs. segsUsed and valid
// cache the per-set segment occupancy and the valid-line count that
// the packing and sampling paths would otherwise recompute.
type Compressed struct {
	blocks   []uint64  // set si's tag words are blocks[si*tags:][:tags]
	meta     []tagMeta // set si is meta[si*tags:][:tags]
	segsUsed []int32   // per-set occupied data segments
	// victims holds each set's replaced addresses, oldest first, in a
	// plain L2 built with vtags victim tags per set: set si's FIFO is
	// victims[si*vtags:][:nvictims[si]] (victimFIFO). Without victim
	// tags vtags is 0 and both arrays are empty.
	victims  []BlockAddr
	nvictims []int32
	vtags    int
	valid    int  // current valid-line count
	tags     int  // tags per set
	dataSegs int  // data segments per set
	plain    bool // every line stored at MaxSegs (NewUncompressedL2)
	setMask  BlockAddr
	Stats    Stats

	// CompressedHits counts hits to lines stored in fewer than MaxSegs
	// segments, which incur the decompression penalty.
	CompressedHits uint64
	// ExpansionEvicts counts evictions forced by in-place size growth.
	ExpansionEvicts uint64
}

// A tag word packs a tag as an L1Line packs an L1 way: the block
// address in the low 58 bits, the 2-bit PfBy above it, then the
// prefetch, dirty, victim and valid bits. An empty tag is 0, and an
// invalid tag that still records the block that last occupied it is
// addr|tagVictim with no other bit set. So no invalid tag matches a
// lookup key (addr|tagValid under tagMatch), and a victim match
// compares whole words.
const (
	tagPfByShift        = addrBits
	tagPrefetch  uint64 = 1 << 60
	tagDirty     uint64 = 1 << 61
	tagVictim    uint64 = 1 << 62
	tagValid     uint64 = 1 << 63
	// tagMatch selects the bits a lookup compares.
	tagMatch = tagValid | uint64(maxAddr)
)

// tagMeta is the rest of a tag: the segments its line occupies and the
// core holding the line in M state plus one (0 none). An invalid tag's
// entry is zero.
type tagMeta struct{ segs, owner uint8 }

// LineRef is a handle on one valid line of the shared L2: Lookup,
// Access, Fill and Touch return one, and ForEachValid passes one to its
// callback. It reads and writes the line's tag word and metadata entry
// in place, and is valid until its set next mutates.
// The zero LineRef refers to no line; Lookup returns it for an absent
// block.
type LineRef struct {
	tag *uint64
	m   *tagMeta
}

// Valid reports whether r refers to a line.
func (r LineRef) Valid() bool { return r.tag != nil }

// Addr returns the line's block address.
func (r LineRef) Addr() BlockAddr { return BlockAddr(*r.tag) & maxAddr }

// Segs returns the 8-byte segments the line occupies, 1..8.
func (r LineRef) Segs() uint8 { return r.m.segs }

// SetSegs overwrites the stored segment count without moving the set's
// occupancy (fault injection; Resize is how a size changes).
func (r LineRef) SetSegs(s uint8) { r.m.segs = s }

// Prefetch reports whether a prefetched line is still unreferenced
// (paper §3).
func (r LineRef) Prefetch() bool { return *r.tag&tagPrefetch != 0 }

// ClearPrefetch clears the prefetch bit.
func (r LineRef) ClearPrefetch() { *r.tag &^= tagPrefetch }

// MarkPrefetch sets the prefetch bit of a resident line (fault
// injection; Fill is how a prefetched line arrives).
func (r LineRef) MarkPrefetch() { *r.tag |= tagPrefetch }

// PfBy returns the prefetcher that brought the line (0 none; see
// coherence.PfSource).
func (r LineRef) PfBy() uint8 { return uint8(*r.tag >> tagPfByShift & 3) }

// SetPfBy records the prefetcher that brought the line; a by above 3
// does not fit the tag word and panics.
func (r LineRef) SetPfBy(by uint8) {
	if by > 3 {
		panic(fmt.Sprintf("cache: L2 PfBy %d does not fit a tag word", by))
	}
	*r.tag = *r.tag&^(3<<tagPfByShift) | uint64(by)<<tagPfByShift
}

// MarkDirty records that the L2 copy is modified.
func (r LineRef) MarkDirty() { *r.tag |= tagDirty }

// Owner returns the core holding the line in M state, or -1.
func (r LineRef) Owner() int { return int(r.m.owner) - 1 }

// SetOwner records core c as holding the line in M state; -1 records
// that no core does.
func (r LineRef) SetOwner(c int) { r.m.owner = uint8(c + 1) }

// Line returns the line as a value.
func (r LineRef) Line() Line {
	t := *r.tag
	return Line{
		Addr:     BlockAddr(t) & maxAddr,
		Dirty:    t&tagDirty != 0,
		Prefetch: t&tagPrefetch != 0,
		PfBy:     uint8(t >> tagPfByShift & 3),
		Segs:     r.m.segs,
	}
}

// NewCompressedL2 builds the paper's compressed shared L2: dataBytes of
// data space, tagsPerSet address tags and dataSegsPerSet 8-byte data
// segments per set.
func NewCompressedL2(dataBytes, tagsPerSet, dataSegsPerSet int) L2 {
	return RecycleCompressedL2(nil, dataBytes, tagsPerSet, dataSegsPerSet)
}

// RecycleCompressedL2 builds NewCompressedL2's cache in old's storage:
// old's arrays are reused where they are large enough, and every word
// of the result is reset to what a fresh build holds, so the two
// behave identically. old is an L2 of any geometry, compressed or
// plain, that nothing uses any more; nil builds fresh.
func RecycleCompressedL2(old L2, dataBytes, tagsPerSet, dataSegsPerSet int) L2 {
	if tagsPerSet <= 0 || dataSegsPerSet <= 0 {
		panic("cache: tags and segments per set must be positive")
	}
	if dataSegsPerSet < MaxSegs {
		panic("cache: a set must hold at least one uncompressed line")
	}
	nsets := dataBytes / (dataSegsPerSet * SegmentBytes)
	checkPow2(nsets, "L2 set count")
	c := old
	if c == nil {
		c = new(Compressed)
	}
	*c = Compressed{
		blocks:   recycled(c.blocks, nsets*tagsPerSet),
		meta:     recycled(c.meta, nsets*tagsPerSet),
		segsUsed: recycled(c.segsUsed, nsets),
		victims:  c.victims[:0], // kept for a later plain build
		nvictims: c.nvictims[:0],
		tags:     tagsPerSet,
		dataSegs: dataSegsPerSet,
		setMask:  BlockAddr(nsets - 1),
	}
	return c
}

// NewUncompressedL2 builds the baseline shared L2: totalBytes, ways-way
// set associative, every line stored uncompressed, with victimTags
// replaced-address tags per set for the adaptive prefetcher (0 disables
// harmful-prefetch detection).
func NewUncompressedL2(totalBytes, ways, victimTags int) L2 {
	return RecycleUncompressedL2(nil, totalBytes, ways, victimTags)
}

// RecycleUncompressedL2 builds NewUncompressedL2's cache in old's
// storage, as RecycleCompressedL2 does.
func RecycleUncompressedL2(old L2, totalBytes, ways, victimTags int) L2 {
	c := RecycleCompressedL2(old, totalBytes, ways, ways*MaxSegs)
	c.plain = true
	if victimTags > 0 {
		c.vtags = victimTags
		c.victims = recycled(c.victims, len(c.segsUsed)*victimTags)
		c.nvictims = recycled(c.nvictims, len(c.segsUsed))
	}
	return c
}

// StoresCompressed reports whether the L2 stores lines at their
// compressed size (false for NewUncompressedL2's plain L2).
func (c *Compressed) StoresCompressed() bool { return !c.plain }

// BaseStats exposes the hit/miss counters.
func (c *Compressed) BaseStats() *Stats { return &c.Stats }

func (c *Compressed) setIndex(a BlockAddr) int { return int(a & c.setMask) }

// tagWords returns set si's tag words.
func (c *Compressed) tagWords(si int) []uint64 {
	b := si * c.tags
	return c.blocks[b : b+c.tags : b+c.tags]
}

// set returns set si's tag words and metadata entries.
func (c *Compressed) set(si int) (tg []uint64, m []tagMeta) {
	b := si * c.tags
	return c.blocks[b : b+c.tags : b+c.tags], c.meta[b : b+c.tags : b+c.tags]
}

// ref returns the handle on tag i of set si.
func (c *Compressed) ref(si, i int) LineRef {
	b := si*c.tags + i
	return LineRef{tag: &c.blocks[b], m: &c.meta[b]}
}

// findWay scans set si's tag words for a valid line holding a and
// returns the tag index, or -1.
func (c *Compressed) findWay(si int, a BlockAddr) int {
	if a > maxAddr {
		return -1 // Fill refuses such addresses
	}
	key := uint64(a) | tagValid
	for i, t := range c.tagWords(si) {
		if t&tagMatch == key {
			return i
		}
	}
	return -1
}

// Lookup returns the line holding a (the zero LineRef when absent),
// without LRU or stats side effects.
func (c *Compressed) Lookup(a BlockAddr) LineRef {
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		return c.ref(si, i)
	}
	return LineRef{}
}

// Access performs a demand lookup: on a hit the line is moved to MRU
// position and returned with ok=true. Hit/miss statistics are updated;
// a hit to a line with its prefetch bit set counts as a prefetch hit
// and clears the bit (the adaptive prefetcher's "useful prefetch"
// event, reported via wasPrefetch). compressed reports whether the hit
// line is stored compressed (decompression penalty applies).
func (c *Compressed) Access(a BlockAddr) (ln LineRef, wasPrefetch, compressed, ok bool) {
	c.Stats.Accesses++
	si := c.setIndex(a)
	i := c.findWay(si, a)
	if i < 0 {
		c.Stats.Misses++
		return LineRef{}, false, false, false
	}
	tg, m := c.set(si)
	if wasPrefetch = tg[i]&tagPrefetch != 0; wasPrefetch {
		tg[i] &^= tagPrefetch
		c.Stats.PrefetchHits++
	}
	if compressed = m[i].segs < MaxSegs; compressed {
		c.CompressedHits++
	}
	c.Stats.Hits++
	return c.touch(si, i), wasPrefetch, compressed, true
}

// touch moves tag i of set si to the MRU position, rotating the set's
// tag words and metadata entries alike, and returns its handle.
func (c *Compressed) touch(si, i int) LineRef {
	tg, m := c.set(si)
	promote(tg, i, tg[i])
	promote(m, i, m[i])
	return c.ref(si, 0)
}

// Touch promotes a to MRU if present and returns its line (the zero
// LineRef when absent).
func (c *Compressed) Touch(a BlockAddr) LineRef {
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		return c.touch(si, i)
	}
	return LineRef{}
}

// Fill inserts a occupying segs segments (a plain L2 stores MaxSegs
// whatever segs says) at MRU position. Victims are appended to vbuf
// (reused to avoid allocation) and returned: the LRU valid lines are
// evicted until a tag is free and the data space fits. prefetch marks
// the inserted line's prefetch bit. A duplicate fill or an address at
// or above 2^58 is a caller bug and panics.
func (c *Compressed) Fill(a BlockAddr, segs uint8, prefetch bool, vbuf []Line) (victims []Line, inserted LineRef) {
	if segs < 1 || segs > MaxSegs {
		panic(fmt.Sprintf("cache: fill with %d segments", segs))
	}
	if a > maxAddr {
		panic(fmt.Sprintf("cache: L2 fill of block %#x does not fit a tag word", uint64(a)))
	}
	if c.plain {
		segs = MaxSegs
	}
	si := c.setIndex(a)
	if c.findWay(si, a) >= 0 {
		panic(fmt.Sprintf("cache: duplicate fill of block %#x", uint64(a)))
	}
	c.Stats.Fills++
	victims = c.makeRoom(si, int(segs), vbuf)
	// Claim the least-recently-used invalid tag (there is one now).
	tg, m := c.set(si)
	vi := -1
	for i := len(tg) - 1; i >= 0; i-- {
		if tg[i]&tagValid == 0 {
			vi = i
			break
		}
	}
	if vi == -1 {
		panic("cache: makeRoom left no free tag")
	}
	t := uint64(a) | tagValid
	if prefetch {
		t |= tagPrefetch
	}
	tg[vi], m[vi] = t, tagMeta{segs: segs}
	c.segsUsed[si] += int32(segs)
	c.valid++
	return victims, c.touch(si, vi)
}

// makeRoom evicts LRU valid lines until the set has a free tag and at
// least need free segments. Evicted lines are appended to vbuf.
func (c *Compressed) makeRoom(si, need int, vbuf []Line) []Line {
	tg := c.tagWords(si)
	for {
		freeTag := false
		for _, t := range tg {
			if t&tagValid == 0 {
				freeTag = true
				break
			}
		}
		if freeTag && c.dataSegs-int(c.segsUsed[si]) >= need {
			return vbuf
		}
		// Evict the LRU valid line.
		vi := -1
		for i := len(tg) - 1; i >= 0; i-- {
			if tg[i]&tagValid != 0 {
				vi = i
				break
			}
		}
		if vi == -1 {
			panic("cache: set has no valid line to evict but no room")
		}
		victim := c.drop(si, vi)
		c.Stats.Evictions++
		if victim.Dirty {
			c.Stats.DirtyEvicts++
		}
		if victim.Prefetch {
			c.Stats.UselessPf++
		}
		vbuf = append(vbuf, victim)
	}
}

// drop invalidates tag i of set si and returns the line as it was. The
// tag word keeps the address as victim history, Addr|tagVictim; a
// victim FIFO, if the set has one, records it too.
func (c *Compressed) drop(si, i int) Line {
	ln := c.ref(si, i).Line()
	tg, m := c.set(si)
	tg[i], m[i] = uint64(ln.Addr)|tagVictim, tagMeta{}
	c.segsUsed[si] -= int32(ln.Segs)
	c.valid--
	if c.vtags > 0 {
		vt, n := c.victims[si*c.vtags:][:c.vtags], int(c.nvictims[si])
		if n == c.vtags {
			copy(vt, vt[1:])
			n--
		}
		vt[n] = ln.Addr
		c.nvictims[si] = int32(n + 1)
	}
	return ln
}

// victimFIFO returns set si's victim FIFO, oldest first.
func (c *Compressed) victimFIFO(si int) []BlockAddr {
	return c.victims[si*c.vtags:][:c.nvictims[si]]
}

// Resize changes the stored size of a (e.g. a dirty writeback whose new
// contents compress differently). Growing a line may force evictions of
// other lines, returned via vbuf. It reports whether a was present. In
// a plain L2 it changes nothing.
func (c *Compressed) Resize(a BlockAddr, segs uint8, vbuf []Line) (victims []Line, found bool) {
	if segs < 1 || segs > MaxSegs {
		panic(fmt.Sprintf("cache: resize to %d segments", segs))
	}
	if c.plain {
		segs = MaxSegs
	}
	si := c.setIndex(a)
	idx := c.findWay(si, a)
	if idx == -1 {
		return vbuf, false
	}
	tg, m := c.set(si)
	old := m[idx].segs
	if segs <= old {
		m[idx].segs = segs
		c.segsUsed[si] -= int32(old - segs)
		return vbuf, true
	}
	grow := int(segs - old)
	victims = vbuf
	for c.dataSegs-int(c.segsUsed[si]) < grow {
		// Evict the LRU valid line other than a itself.
		vi := -1
		for i := len(tg) - 1; i >= 0; i-- {
			if tg[i]&tagValid != 0 && i != idx {
				vi = i
				break
			}
		}
		if vi == -1 {
			// Only a remains; an uncompressed line always fits alone.
			break
		}
		victim := c.drop(si, vi)
		c.Stats.Evictions++
		c.ExpansionEvicts++
		if victim.Dirty {
			c.Stats.DirtyEvicts++
		}
		if victim.Prefetch {
			c.Stats.UselessPf++
		}
		victims = append(victims, victim)
	}
	// drop does not reorder the set, so idx is still correct.
	m[idx].segs = segs
	c.segsUsed[si] += int32(segs - old)
	return victims, true
}

// VictimMatch reports whether a was recently replaced in its set — the
// paper's test for "this miss was caused by a replacement", which the
// adaptive prefetcher's harmful-prefetch check runs on every L2 miss.
// It reads the set's victim FIFO when the L2 has one, else the invalid
// tags. The matching record is consumed so one replacement is only
// counted once.
func (c *Compressed) VictimMatch(a BlockAddr) bool {
	si := c.setIndex(a)
	if c.vtags == 0 {
		return c.invalidTagMatch(si, a)
	}
	vt := c.victimFIFO(si)
	for i := range vt {
		if vt[i] == a {
			copy(vt[i:], vt[i+1:])
			c.nvictims[si]--
			return true
		}
	}
	return false
}

// invalidTagMatch scans set si's invalid tags in LRU-stack order for
// one recording address a, and clears it if found.
func (c *Compressed) invalidTagMatch(si int, a BlockAddr) bool {
	if a > maxAddr {
		return false // no tag word records such an address
	}
	key := uint64(a) | tagVictim
	tg := c.tagWords(si)
	for i := len(tg) - 1; i >= 0; i-- {
		if tg[i] == key {
			tg[i] = 0
			return true
		}
	}
	return false
}

// AnyPrefetchInSet reports whether any valid line in a's set has its
// prefetch bit set.
func (c *Compressed) AnyPrefetchInSet(a BlockAddr) bool {
	for _, t := range c.tagWords(c.setIndex(a)) {
		if t&(tagValid|tagPrefetch) == tagValid|tagPrefetch {
			return true
		}
	}
	return false
}

// ValidLines returns the number of valid cached lines.
func (c *Compressed) ValidLines() int { return c.valid }

// ForEachValid calls fn for every valid line, set by set and each set
// most recently used first. fn may change a line through its handle,
// but nothing may add, remove or reorder lines during the iteration.
func (c *Compressed) ForEachValid(fn func(LineRef)) {
	for si := range c.segsUsed {
		for i, t := range c.tagWords(si) {
			if t&tagValid != 0 {
				fn(c.ref(si, i))
			}
		}
	}
}

// CheckInvariants validates internal consistency (test and audit
// support): an invalid tag word is 0 or a victim address with no other
// bit and its metadata entry is zero, no valid word
// carries the victim bit, valid lines have legal sizes (MaxSegs in a
// plain L2) and map to their set, no set holds an address twice, the
// segment budget holds, and the per-set segment counts and the
// valid-line count track the tags. It returns a descriptive error
// string, or "".
func (c *Compressed) CheckInvariants() string {
	nvalid := 0
	for si := range c.segsUsed {
		tg, m := c.set(si)
		used := 0
		for i, t := range tg {
			if t&tagValid == 0 {
				if t&^(tagVictim|uint64(maxAddr)) != 0 {
					return fmt.Sprintf("set %d tag %d: invalid tag word %#x carries line-state bits", si, i, t)
				}
				if m[i] != (tagMeta{}) {
					return fmt.Sprintf("set %d tag %d: invalid tag not reset (segs %d owner %d)",
						si, i, m[i].segs, int(m[i].owner)-1)
				}
				continue
			}
			nvalid++
			a := BlockAddr(t) & maxAddr
			if t&tagVictim != 0 {
				return fmt.Sprintf("set %d tag %d: valid word %#x carries the victim bit", si, i, t)
			}
			if s := m[i].segs; s < 1 || s > MaxSegs || c.plain && s != MaxSegs {
				return fmt.Sprintf("set %d: line %#x has %d segs", si, uint64(a), s)
			}
			for _, o := range tg[:i] {
				if o&tagMatch == t&tagMatch {
					return fmt.Sprintf("set %d: duplicate tag %#x", si, uint64(a))
				}
			}
			used += int(m[i].segs)
			if int(a&c.setMask) != si {
				return fmt.Sprintf("set %d: line %#x maps to set %d", si, uint64(a), a&c.setMask)
			}
		}
		if used > c.dataSegs {
			return fmt.Sprintf("set %d: %d segments used > %d budget", si, used, c.dataSegs)
		}
		if used != int(c.segsUsed[si]) {
			return fmt.Sprintf("set %d: segment counter %d desynced from actual usage %d", si, c.segsUsed[si], used)
		}
	}
	if nvalid != c.valid {
		return fmt.Sprintf("valid-line counter %d desynced from actual count %d", c.valid, nvalid)
	}
	for si, n := range c.nvictims {
		if n < 0 || int(n) > c.vtags {
			return fmt.Sprintf("set %d: %d victims recorded in a %d-entry FIFO", si, n, c.vtags)
		}
	}
	return ""
}

// InjectDuplicateTag deliberately corrupts the cache for fault-injection
// tests: it revives an invalid tag with the address of a valid line in
// the same set, creating the double-owned state CheckInvariants must
// catch. The set's segment count and the valid-line count take the
// revived one-segment line in, so the duplicate-tag violation is the
// one that fires. It reports whether a suitable set was found.
func (c *Compressed) InjectDuplicateTag() bool {
	for si := range c.segsUsed {
		tg, m := c.set(si)
		vi, ii := -1, -1
		for i, t := range tg {
			if t&tagValid != 0 && vi == -1 {
				vi = i
			}
			if t&tagValid == 0 && ii == -1 {
				ii = i
			}
		}
		if vi == -1 || ii == -1 {
			continue
		}
		tg[ii] = tg[vi] & tagMatch
		m[ii] = tagMeta{segs: 1}
		c.segsUsed[si]++
		c.valid++
		return true
	}
	return false
}

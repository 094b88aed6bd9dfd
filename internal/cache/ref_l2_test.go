package cache

import "fmt"

// This file keeps the shared L2 as it was before its storage was
// packed into a tag word and a 2-byte entry per tag, as the reference
// FuzzCompressedSetOps checks Compressed against step for step: refL2
// stores each tag as a refLine in one array and mirrors it in a second
// array of tag words, refTagValid|Addr for a valid line and
// refTagVictim|Addr for a victim tag. Its logic is unchanged; only its
// names differ, the sharer masks Compressed no longer keeps are gone,
// and the methods no test calls are left out.

// refLine is one shared-L2 tag and its metadata: the owner (Owner,
// SetOwner) tracks the on-chip modified copy and Segs the compressed
// size. The zero refLine is an empty tag, so clearing the tag array
// builds an empty cache.
type refLine struct {
	Addr     BlockAddr
	Valid    bool
	Dirty    bool
	Prefetch bool  // set while a prefetched line is unreferenced (paper §3)
	PfBy     uint8 // prefetcher that brought the line (0 none; see coherence.PfSource)
	Segs     uint8 // occupied 8-byte segments, 1..8; 8 = uncompressed
	owner    uint8 // core holding the line in M state plus one; 0 = none

	// VictimTag marks an invalid tag that still records the address of
	// the line that last occupied it (the compressed L2's extra-tag
	// victim history used for harmful-prefetch detection).
	VictimTag bool
}

// Owner returns the core holding the line in M state, or -1.
func (ln *refLine) Owner() int { return int(ln.owner) - 1 }

// SetOwner records core c as holding the line in M state; -1 records
// that no core does.
func (ln *refLine) SetOwner(c int) { ln.owner = uint8(c + 1) }

// reset clears a line to the invalid state but preserves Addr so that
// invalid tags serve as victim-address history for harmful-prefetch
// detection (the compressed cache's "extra tags").
func (ln *refLine) reset() { *ln = refLine{Addr: ln.Addr} }

// Stats counts the events a cache observes. The simulation engine reads
// refTagValid is OR-ed into a line's address to form its entry in the L2's
// struct-of-arrays tag mirror: valid lines store Addr|refTagValid and
// invalid tags never carry the bit, so a lookup key (a|refTagValid) can
// never match an invalid tag. An invalid tag stores 0, or Addr|refTagVictim
// while it still records a victim, so a victim match never touches refLine
// structs. Block addresses must stay below 2^62 (a 64-bit byte address
// needs only 58 bits of block address).
const (
	refTagValid  BlockAddr = 1 << 63
	refTagVictim BlockAddr = 1 << 62
)

// refL2 is the decoupled variable-segment cache of Alameldeen &
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
// Built plain by newRefUncompressedL2, with one tag per way and every line
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
// Tag metadata is mirrored struct-of-arrays style: tagw holds one word
// per (set, tag) in LRU order so demand lookups, free-tag tests and
// victim-tag matches scan one contiguous line of tag words instead of
// refLine structs; segsUsed and valid cache the per-set segment occupancy
// and global valid-line count that the packing and sampling paths
// would otherwise recompute.
type refL2 struct {
	// lines holds every set's tags, set-major (set si is
	// lines[si*tags : (si+1)*tags]), each set ordered MRU first;
	// invalid tags keep a stale Addr.
	lines []refLine
	// tagw mirrors lines one word per tag: Addr|refTagValid for a valid
	// line, Addr|refTagVictim for an invalid tag that still records a
	// victim, 0 otherwise.
	tagw     []BlockAddr
	segsUsed []int32 // per-set occupied data segments
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
	plain    bool // every line stored at MaxSegs (newRefUncompressedL2)
	setMask  BlockAddr
	Stats    Stats

	// CompressedHits counts hits to lines stored in fewer than MaxSegs
	// segments, which incur the decompression penalty.
	CompressedHits uint64
	// ExpansionEvicts counts evictions forced by in-place size growth.
	ExpansionEvicts uint64
}

// newRefCompressedL2 builds the paper's compressed shared L2: dataBytes of
// data space, tagsPerSet address tags and dataSegsPerSet 8-byte data
// segments per set.
func newRefCompressedL2(dataBytes, tagsPerSet, dataSegsPerSet int) *refL2 {
	return recycleRefCompressedL2(nil, dataBytes, tagsPerSet, dataSegsPerSet)
}

// recycleRefCompressedL2 builds newRefCompressedL2's cache in old's storage:
// old's arrays are reused where they are large enough, and every word
// of the result is reset to what a fresh build holds, so the two
// behave identically. old is an L2 of any geometry, compressed or
// plain, that nothing uses any more; nil builds fresh.
func recycleRefCompressedL2(old *refL2, dataBytes, tagsPerSet, dataSegsPerSet int) *refL2 {
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
		c = new(refL2)
	}
	*c = refL2{
		lines:    recycled(c.lines, nsets*tagsPerSet),
		tagw:     recycled(c.tagw, nsets*tagsPerSet),
		segsUsed: recycled(c.segsUsed, nsets),
		victims:  c.victims[:0], // kept for a later plain build
		nvictims: c.nvictims[:0],
		tags:     tagsPerSet,
		dataSegs: dataSegsPerSet,
		setMask:  BlockAddr(nsets - 1),
	}
	return c
}

// newRefUncompressedL2 builds the baseline shared L2: totalBytes, ways-way
// set associative, every line stored uncompressed, with victimTags
// replaced-address tags per set for the adaptive prefetcher (0 disables
// harmful-prefetch detection).
func newRefUncompressedL2(totalBytes, ways, victimTags int) *refL2 {
	return recycleRefUncompressedL2(nil, totalBytes, ways, victimTags)
}

// recycleRefUncompressedL2 builds newRefUncompressedL2's cache in old's
// storage, as recycleRefCompressedL2 does.
func recycleRefUncompressedL2(old *refL2, totalBytes, ways, victimTags int) *refL2 {
	c := recycleRefCompressedL2(old, totalBytes, ways, ways*MaxSegs)
	c.plain = true
	if victimTags > 0 {
		c.vtags = victimTags
		c.victims = recycled(c.victims, len(c.segsUsed)*victimTags)
		c.nvictims = recycled(c.nvictims, len(c.segsUsed))
	}
	return c
}

func (c *refL2) setIndex(a BlockAddr) int { return int(a & c.setMask) }

// set returns set si's lines and tag words.
func (c *refL2) set(si int) ([]refLine, []BlockAddr) {
	lo, hi := si*c.tags, si*c.tags+c.tags
	return c.lines[lo:hi:hi], c.tagw[lo:hi:hi]
}

// findWay scans the set's tag mirror for a valid line holding a and
// returns the tag index, or -1.
func (c *refL2) findWay(si int, a BlockAddr) int {
	key := a | refTagValid
	_, tg := c.set(si)
	for i, t := range tg {
		if t == key {
			return i
		}
	}
	return -1
}

// Lookup returns the valid line for a, or nil, without LRU or stats
// side effects.
func (c *refL2) Lookup(a BlockAddr) *refLine {
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		return &c.lines[si*c.tags+i]
	}
	return nil
}

// Access performs a demand lookup: on a hit the line is moved to MRU
// position and returned with ok=true. Hit/miss statistics are updated;
// a hit to a line with its prefetch bit set counts as a prefetch hit
// and clears the bit (the adaptive prefetcher's "useful prefetch"
// event, reported via wasPrefetch). compressed reports whether the hit
// line is stored compressed (decompression penalty applies).
func (c *refL2) Access(a BlockAddr) (ln *refLine, wasPrefetch, compressed, ok bool) {
	c.Stats.Accesses++
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		set, _ := c.set(si)
		wasPrefetch = set[i].Prefetch
		if wasPrefetch {
			set[i].Prefetch = false
			c.Stats.PrefetchHits++
		}
		compressed = set[i].Segs < MaxSegs
		if compressed {
			c.CompressedHits++
		}
		c.touch(si, i)
		c.Stats.Hits++
		return &set[0], wasPrefetch, compressed, true
	}
	c.Stats.Misses++
	return nil, false, false, false
}

// touch moves tag i of set si to MRU position in both the refLine array
// and the tag mirror.
func (c *refL2) touch(si, i int) {
	if i == 0 {
		return
	}
	set, tg := c.set(si)
	ln := set[i]
	copy(set[1:i+1], set[0:i])
	set[0] = ln
	t := tg[i]
	copy(tg[1:i+1], tg[0:i])
	tg[0] = t
}

// Touch promotes a to MRU if present.
func (c *refL2) Touch(a BlockAddr) bool {
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		c.touch(si, i)
		return true
	}
	return false
}

// Fill inserts a occupying segs segments (a plain L2 stores MaxSegs
// whatever segs says) at MRU position. Victims are appended to vbuf
// (reused to avoid allocation) and returned: the LRU valid lines are
// evicted until a tag is free and the data space fits. prefetch marks
// the inserted line's prefetch bit. The inserted line pointer is valid
// until the set next mutates.
func (c *refL2) Fill(a BlockAddr, segs uint8, prefetch bool, vbuf []refLine) (victims []refLine, inserted *refLine) {
	if segs < 1 || segs > MaxSegs {
		panic(fmt.Sprintf("cache: fill with %d segments", segs))
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
	set, tg := c.set(si)
	vi := -1
	for i := len(tg) - 1; i >= 0; i-- {
		if tg[i]&refTagValid == 0 {
			vi = i
			break
		}
	}
	if vi == -1 {
		panic("cache: makeRoom left no free tag")
	}
	set[vi].reset()
	set[vi].Addr = a
	set[vi].Valid = true
	set[vi].Prefetch = prefetch
	set[vi].Segs = segs
	tg[vi] = a | refTagValid
	c.segsUsed[si] += int32(segs)
	c.valid++
	c.touch(si, vi)
	return victims, &set[0]
}

// makeRoom evicts LRU valid lines until the set has a free tag and at
// least need free segments. Evicted lines are appended to vbuf.
func (c *refL2) makeRoom(si, need int, vbuf []refLine) []refLine {
	_, tg := c.set(si)
	for {
		freeTag := false
		for i := range tg {
			if tg[i]&refTagValid == 0 {
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
			if tg[i]&refTagValid != 0 {
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
// tag keeps the address as victim history, mirrored as Addr|refTagVictim;
// a victim FIFO, if the set has one, records it too.
func (c *refL2) drop(si, i int) refLine {
	set, tg := c.set(si)
	ln := set[i]
	set[i].reset() // Addr retained: victim tag
	set[i].VictimTag = true
	tg[i] = ln.Addr | refTagVictim
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
func (c *refL2) victimFIFO(si int) []BlockAddr {
	return c.victims[si*c.vtags:][:c.nvictims[si]]
}

// Resize changes the stored size of a (e.g. a dirty writeback whose new
// contents compress differently). Growing a line may force evictions of
// other lines, returned via vbuf. It reports whether a was present. In
// a plain L2 it changes nothing.
func (c *refL2) Resize(a BlockAddr, segs uint8, vbuf []refLine) (victims []refLine, found bool) {
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
	set, tg := c.set(si)
	old := set[idx].Segs
	if segs <= old {
		set[idx].Segs = segs
		c.segsUsed[si] -= int32(old - segs)
		return vbuf, true
	}
	grow := int(segs - old)
	victims = vbuf
	for c.dataSegs-int(c.segsUsed[si]) < grow {
		// Evict the LRU valid line other than a itself.
		vi := -1
		for i := len(tg) - 1; i >= 0; i-- {
			if tg[i]&refTagValid != 0 && tg[i] != a|refTagValid {
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
	set[idx].Segs = segs
	c.segsUsed[si] += int32(segs - old)
	return victims, true
}

// VictimMatch reports whether a was recently replaced in its set — the
// paper's test for "this miss was caused by a replacement", which the
// adaptive prefetcher's harmful-prefetch check runs on every L2 miss.
// It reads the set's victim FIFO when the L2 has one, else the invalid
// tags. The matching record is consumed so one replacement is only
// counted once.
func (c *refL2) VictimMatch(a BlockAddr) bool {
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
func (c *refL2) invalidTagMatch(si int, a BlockAddr) bool {
	key := a | refTagVictim
	set, tg := c.set(si)
	for i := len(tg) - 1; i >= 0; i-- {
		if tg[i] == key {
			set[i].VictimTag = false
			tg[i] = 0
			return true
		}
	}
	return false
}

// AnyPrefetchInSet reports whether any valid line in a's set has its
// prefetch bit set.
func (c *refL2) AnyPrefetchInSet(a BlockAddr) bool {
	set, _ := c.set(c.setIndex(a))
	for i := range set {
		if set[i].Valid && set[i].Prefetch {
			return true
		}
	}
	return false
}

// ValidLines returns the number of valid cached lines.
func (c *refL2) ValidLines() int { return c.valid }

// ForEachValid calls fn for every valid line; the cache must not be
// mutated during iteration.
func (c *refL2) ForEachValid(fn func(*refLine)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}

// CheckInvariants validates internal consistency (test and audit
// support): no duplicate valid tags in a set, segment budget respected,
// valid lines have legal sizes (MaxSegs in a plain L2), invalid tags
// fully reset, and the struct-of-arrays mirrors (tag and victim words,
// per-set segment counts, global valid-line count) exactly tracking
// the refLine array. It returns a descriptive error string, or "".
func (c *refL2) CheckInvariants() string {
	nvalid := 0
	for si := range c.segsUsed {
		set, tg := c.set(si)
		used := 0
		seen := map[BlockAddr]bool{}
		for i := range set {
			want := BlockAddr(0)
			switch {
			case set[i].Valid:
				want = set[i].Addr | refTagValid
				nvalid++
			case set[i].VictimTag:
				want = set[i].Addr | refTagVictim
			}
			if got := tg[i]; got != want {
				return fmt.Sprintf("set %d tag %d: tag mirror %#x desynced from line (want %#x)",
					si, i, uint64(got), uint64(want))
			}
			if !set[i].Valid {
				if set[i].Segs != 0 || set[i].Dirty || set[i].Prefetch {
					return fmt.Sprintf("set %d tag %d: invalid tag not reset (segs %d dirty %v pf %v)",
						si, i, set[i].Segs, set[i].Dirty, set[i].Prefetch)
				}
				continue
			}
			if set[i].Segs < 1 || set[i].Segs > MaxSegs || c.plain && set[i].Segs != MaxSegs {
				return fmt.Sprintf("set %d: line %#x has %d segs", si, uint64(set[i].Addr), set[i].Segs)
			}
			if seen[set[i].Addr] {
				return fmt.Sprintf("set %d: duplicate tag %#x", si, uint64(set[i].Addr))
			}
			seen[set[i].Addr] = true
			used += int(set[i].Segs)
			if int(set[i].Addr&c.setMask) != si {
				return fmt.Sprintf("set %d: line %#x maps to set %d", si, uint64(set[i].Addr), set[i].Addr&c.setMask)
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

package cache

import "fmt"

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
// Note on the paper's parameters: §2 states both "data space for 4
// uncompressed lines ... 8 address tags" and "64 8-byte segments" per
// set; the two are inconsistent (4 × 64 B = 32 segments). We follow the
// capacity statement ("compression can at most double the capacity",
// "4-way to 8-way"), i.e. 32 segments per set, which also matches the
// decoupled variable-segment cache of the ISCA 2004 paper.
// Tag metadata is mirrored struct-of-arrays style (see SetAssoc): tagw
// holds one word per (set, tag) in LRU order so demand lookups, free-tag
// tests and victim-tag matches scan one contiguous line of tag words
// instead of Line structs; segsUsed and valid cache the per-set segment
// occupancy and global valid-line count that the packing and sampling
// paths would otherwise recompute.
type Compressed struct {
	// lines holds every set's tags, set-major (set si is
	// lines[si*tags : (si+1)*tags]), each set ordered MRU first;
	// invalid tags keep a stale Addr.
	lines []Line
	// tagw mirrors lines one word per tag: Addr|tagValid for a valid
	// line, Addr|tagVictim for an invalid tag that still records a
	// victim, 0 otherwise.
	tagw     []BlockAddr
	segsUsed []int32 // per-set occupied data segments
	valid    int     // current valid-line count
	tags     int     // tags per set
	dataSegs int     // data segments per set
	setMask  BlockAddr
	Stats    Stats

	// CompressedHits counts hits to lines stored in fewer than MaxSegs
	// segments, which incur the decompression penalty.
	CompressedHits uint64
	// ExpansionEvicts counts evictions forced by in-place size growth.
	ExpansionEvicts uint64
}

// NewCompressed builds a decoupled variable-segment cache with
// dataBytes of data capacity, tagsPerSet address tags per set and
// dataSegsPerSet 8-byte data segments per set.
func NewCompressed(dataBytes, tagsPerSet, dataSegsPerSet int) *Compressed {
	if tagsPerSet <= 0 || dataSegsPerSet <= 0 {
		panic("cache: tags and segments per set must be positive")
	}
	if dataSegsPerSet < MaxSegs {
		panic("cache: a set must hold at least one uncompressed line")
	}
	nsets := dataBytes / (dataSegsPerSet * SegmentBytes)
	checkPow2(nsets, "compressed cache set count")
	c := &Compressed{
		lines:    make([]Line, nsets*tagsPerSet),
		tagw:     make([]BlockAddr, nsets*tagsPerSet),
		segsUsed: make([]int32, nsets),
		tags:     tagsPerSet,
		dataSegs: dataSegsPerSet,
		setMask:  BlockAddr(nsets - 1),
	}
	for i := range c.lines {
		c.lines[i].Owner = -1
	}
	return c
}

// Sets returns the number of sets.
func (c *Compressed) Sets() int { return len(c.segsUsed) }

// TagsPerSet returns the number of address tags per set.
func (c *Compressed) TagsPerSet() int { return c.tags }

// DataSegsPerSet returns the data capacity of one set in segments.
func (c *Compressed) DataSegsPerSet() int { return c.dataSegs }

// CapacityBytes returns the physical data capacity.
func (c *Compressed) CapacityBytes() int {
	return c.Sets() * c.dataSegs * SegmentBytes
}

func (c *Compressed) setIndex(a BlockAddr) int { return int(a & c.setMask) }

// set returns set si's lines and tag words.
func (c *Compressed) set(si int) ([]Line, []BlockAddr) {
	lo, hi := si*c.tags, si*c.tags+c.tags
	return c.lines[lo:hi:hi], c.tagw[lo:hi:hi]
}

// findWay scans the set's tag mirror for a valid line holding a and
// returns the tag index, or -1.
func (c *Compressed) findWay(si int, a BlockAddr) int {
	key := a | tagValid
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
func (c *Compressed) Lookup(a BlockAddr) *Line {
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		return &c.lines[si*c.tags+i]
	}
	return nil
}

// Access performs a demand lookup with LRU update and statistics, as
// SetAssoc.Access. compressed reports whether the hit line is stored
// compressed (decompression penalty applies).
func (c *Compressed) Access(a BlockAddr) (ln *Line, wasPrefetch, compressed, ok bool) {
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

// touch moves tag i of set si to MRU position in both the Line array
// and the tag mirror.
func (c *Compressed) touch(si, i int) {
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
func (c *Compressed) Touch(a BlockAddr) bool {
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		c.touch(si, i)
		return true
	}
	return false
}

// Fill inserts a occupying segs segments at MRU position. Victims are
// appended to vbuf (reused to avoid allocation) and returned: the LRU
// valid lines are evicted until a tag is free and the data space fits.
// The inserted line pointer is valid until the set next mutates.
func (c *Compressed) Fill(a BlockAddr, segs uint8, prefetch bool, vbuf []Line) (victims []Line, inserted *Line) {
	if segs < 1 || segs > MaxSegs {
		panic(fmt.Sprintf("cache: fill with %d segments", segs))
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
		if tg[i]&tagValid == 0 {
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
	tg[vi] = a | tagValid
	c.segsUsed[si] += int32(segs)
	c.valid++
	c.touch(si, vi)
	return victims, &set[0]
}

// makeRoom evicts LRU valid lines until the set has a free tag and at
// least need free segments. Evicted lines are appended to vbuf.
func (c *Compressed) makeRoom(si, need int, vbuf []Line) []Line {
	_, tg := c.set(si)
	for {
		freeTag := false
		for i := range tg {
			if tg[i]&tagValid == 0 {
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
// tag keeps the address as victim history, mirrored as Addr|tagVictim.
func (c *Compressed) drop(si, i int) Line {
	set, tg := c.set(si)
	ln := set[i]
	set[i].reset() // Addr retained: victim tag
	set[i].VictimTag = true
	tg[i] = ln.Addr | tagVictim
	c.segsUsed[si] -= int32(ln.Segs)
	c.valid--
	return ln
}

// Resize changes the stored size of a (e.g. a dirty writeback whose new
// contents compress differently). Growing a line may force evictions of
// other lines, returned via vbuf. It reports whether a was present.
func (c *Compressed) Resize(a BlockAddr, segs uint8, vbuf []Line) (victims []Line, found bool) {
	if segs < 1 || segs > MaxSegs {
		panic(fmt.Sprintf("cache: resize to %d segments", segs))
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
			if tg[i]&tagValid != 0 && tg[i] != a|tagValid {
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

// Invalidate removes a, returning the line as it was (Valid=false if
// absent). The invalid tag keeps the address as victim history.
func (c *Compressed) Invalidate(a BlockAddr) Line {
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		c.Stats.Invals++
		return c.drop(si, i)
	}
	return Line{}
}

// InvalidTagMatch scans the invalid tags of a's set in LRU-stack order
// and reports whether any records address a — the paper's test for "this
// miss was caused by a replacement". The matching tag is cleared so one
// replacement is only counted once.
func (c *Compressed) InvalidTagMatch(a BlockAddr) bool {
	key := a | tagVictim
	set, tg := c.set(c.setIndex(a))
	for i := len(tg) - 1; i >= 0; i-- {
		if tg[i] == key {
			set[i].VictimTag = false
			tg[i] = 0
			return true
		}
	}
	return false
}

// VictimTagCount returns the number of invalid tags currently holding
// victim addresses in a's set — the paper's "unused compression tags"
// whose availability limits harmful-prefetch detection (§5.4).
func (c *Compressed) VictimTagCount(a BlockAddr) int {
	_, tg := c.set(c.setIndex(a))
	n := 0
	for _, t := range tg {
		if t&tagVictim != 0 {
			n++
		}
	}
	return n
}

// AnyPrefetchInSet reports whether any valid line in a's set has its
// prefetch bit set.
func (c *Compressed) AnyPrefetchInSet(a BlockAddr) bool {
	set, _ := c.set(c.setIndex(a))
	for i := range set {
		if set[i].Valid && set[i].Prefetch {
			return true
		}
	}
	return false
}

// ValidLines returns the number of valid cached lines.
func (c *Compressed) ValidLines() int { return c.valid }

// EffectiveBytes returns the effective cache size: valid lines × 64 B.
// With incompressible data this equals at most CapacityBytes; with
// compressible data it can reach 2× (tags permitting).
func (c *Compressed) EffectiveBytes() int { return c.ValidLines() * LineBytes }

// UsedSegments returns the total data segments currently occupied.
func (c *Compressed) UsedSegments() int {
	n := 0
	for _, u := range c.segsUsed {
		n += int(u)
	}
	return n
}

// ForEachValid calls fn for every valid line; the cache must not be
// mutated during iteration.
func (c *Compressed) ForEachValid(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}

// CheckInvariants validates internal consistency (test and audit
// support): no duplicate valid tags in a set, segment budget respected,
// valid lines have legal sizes, invalid tags own no segments, and the
// struct-of-arrays mirrors (tag and victim words, per-set segment
// counts, global valid-line count) exactly tracking the Line array. It
// returns a descriptive error string, or "".
func (c *Compressed) CheckInvariants() string {
	nvalid := 0
	for si := range c.segsUsed {
		set, tg := c.set(si)
		used := 0
		seen := map[BlockAddr]bool{}
		for i := range set {
			want := BlockAddr(0)
			switch {
			case set[i].Valid:
				want = set[i].Addr | tagValid
				nvalid++
			case set[i].VictimTag:
				want = set[i].Addr | tagVictim
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
			if set[i].Segs < 1 || set[i].Segs > MaxSegs {
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
	return ""
}

// InjectDuplicateTag deliberately corrupts the cache for fault-injection
// tests: it revives an invalid tag with the address of a valid line in
// the same set, creating the double-owned state CheckInvariants must
// catch. The struct-of-arrays mirrors are kept consistent with the
// revived line so the duplicate-tag violation is the one that fires.
// It reports whether a suitable set was found.
func (c *Compressed) InjectDuplicateTag() bool {
	for si := range c.segsUsed {
		set, tg := c.set(si)
		vi, ii := -1, -1
		for i := range set {
			if set[i].Valid && vi == -1 {
				vi = i
			}
			if !set[i].Valid && ii == -1 {
				ii = i
			}
		}
		if vi == -1 || ii == -1 {
			continue
		}
		set[ii].Valid = true
		set[ii].Addr = set[vi].Addr
		set[ii].Segs = 1
		tg[ii] = set[ii].Addr | tagValid
		c.segsUsed[si]++
		c.valid++
		return true
	}
	return false
}

// Package cache implements the cache structures of the HPCA 2007
// compression+prefetching CMP study: the private L1s (L1, one packed
// word per way), the conventional set-associative uncompressed
// shared-L2 baseline (SetAssoc) and the decoupled variable-segment
// compressed cache used for the compressed shared L2.
//
// All caches operate on 64-byte block addresses (BlockAddr). They are
// purely functional state machines: hits, fills, evictions and
// invalidations mutate tag state and report what happened; all timing is
// applied by the simulation engine on top of these results.
package cache

import (
	"fmt"
	"math/bits"
)

// BlockAddr is a cache-block-aligned address: the byte address divided by
// the 64-byte line size.
type BlockAddr uint64

// LineBytes is the cache line size in bytes (fixed by the paper's Table 1).
const LineBytes = 64

// SegmentBytes is the compressed-cache allocation granule and off-chip
// flit size.
const SegmentBytes = 8

// MaxSegs is the size of an uncompressed line in segments.
const MaxSegs = LineBytes / SegmentBytes

// DefaultTagsPerSet and DefaultSegsPerSet are the paper's compressed-L2
// set geometry: DefaultLinesPerSet uncompressed lines of data area per
// set, with twice as many address tags so compression can double the
// effective line count. sim.NewConfig instantiates the compressed L2
// with these, and workload.PackedRatio packs its calibration samples
// against the same two bounds — deriving both from one place keeps a
// geometry change from silently skewing CalibrateKnobCodec targets.
const (
	DefaultLinesPerSet = 4
	DefaultTagsPerSet  = 2 * DefaultLinesPerSet
	DefaultSegsPerSet  = DefaultLinesPerSet * MaxSegs
)

// MaxEffectiveRatio is the compressed cache's best-case effective-size
// gain over the uncompressed baseline: the tag budget caps a set at
// DefaultTagsPerSet lines in DefaultLinesPerSet lines' worth of space.
const MaxEffectiveRatio = float64(DefaultTagsPerSet) / float64(DefaultLinesPerSet)

// Line is one shared-L2 tag and its metadata: Sharers/ISharers/Owner
// track on-chip L1 copies and Segs the compressed size. The 4-byte
// fields sit ahead of the 1-byte ones so the struct packs into 24 bytes
// (TestLineSize pins it).
type Line struct {
	Addr     BlockAddr
	Sharers  uint32 // bitmask of cores whose L1D holds the line
	ISharers uint32 // bitmask of cores whose L1I holds the line
	Valid    bool
	Dirty    bool
	Prefetch bool  // set while a prefetched line is unreferenced (paper §3)
	PfBy     uint8 // prefetcher that brought the line (0 none; see coherence.PfSource)
	Segs     uint8 // occupied 8-byte segments, 1..8; 8 = uncompressed
	Owner    int8  // core holding the line in M state, or -1

	// VictimTag marks an invalid tag that still records the address of
	// the line that last occupied it (the compressed cache's extra-tag
	// victim history used for harmful-prefetch detection).
	VictimTag bool
}

// reset clears a line to the invalid state but preserves Addr so that
// invalid tags serve as victim-address history for harmful-prefetch
// detection (the compressed cache's "extra tags").
func (ln *Line) reset() {
	ln.Valid = false
	ln.Dirty = false
	ln.Prefetch = false
	ln.PfBy = 0
	ln.Segs = 0
	ln.Sharers = 0
	ln.ISharers = 0
	ln.Owner = -1
	ln.VictimTag = false
}

// Stats counts the events a cache observes. The simulation engine reads
// these for miss-rate and prefetch metrics.
type Stats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	Fills        uint64
	Evictions    uint64
	DirtyEvicts  uint64
	PrefetchHits uint64 // first demand reference to a prefetched line
	UselessPf    uint64 // prefetched lines evicted unreferenced
	Invals       uint64
}

// tagValid is OR-ed into a line's address to form its entry in the
// struct-of-arrays tag mirror: valid lines store Addr|tagValid and
// invalid ways never carry the bit, so a lookup key (a|tagValid) can
// never match an invalid way. An invalid way stores 0, except that the
// compressed cache mirrors a tag still recording a victim as
// Addr|tagVictim, so a victim match never touches Line structs. Block
// addresses must stay below 2^62 (a 64-bit byte address needs only 58
// bits of block address).
const (
	tagValid  BlockAddr = 1 << 63
	tagVictim BlockAddr = 1 << 62
)

// SetAssoc is a conventional set-associative write-back cache with true
// LRU replacement: the uncompressed shared L2 (UncompressedL2). Each set
// is ordered most-recently-used first. An optional victim-tag FIFO per
// set records recently replaced block addresses so the adaptive
// prefetcher can detect harmful prefetches even without the compressed
// cache's extra tags (paper §5.4 notes the adaptive algorithm has four
// extra tags per set when compression is disabled).
//
// Tag metadata is mirrored struct-of-arrays style: tags holds one word
// per (set, way) in LRU order, kept exactly in sync with sets, so the
// demand-lookup scan touches one contiguous cache line per set instead
// of striding across full Line structs.
type SetAssoc struct {
	sets       [][]Line
	tags       []BlockAddr   // nsets*ways mirror: Addr|tagValid, 0 = invalid
	victimTags [][]BlockAddr // per-set FIFO of replaced addresses
	valid      int           // current valid-line count
	ways       int
	setShift   uint
	setMask    BlockAddr
	Stats      Stats
}

// NewSetAssoc builds a cache of totalBytes capacity with the given
// associativity and 64-byte lines. victimTags extra replaced-address tags
// are kept per set (0 disables them). totalBytes must give a power-of-two
// set count.
func NewSetAssoc(totalBytes, ways, victimTags int) *SetAssoc {
	if totalBytes <= 0 || ways <= 0 {
		panic("cache: capacity and ways must be positive")
	}
	nsets := totalBytes / (LineBytes * ways)
	if nsets == 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", nsets))
	}
	c := &SetAssoc{
		sets:    make([][]Line, nsets),
		tags:    make([]BlockAddr, nsets*ways),
		ways:    ways,
		setMask: BlockAddr(nsets - 1),
	}
	backing := make([]Line, nsets*ways)
	for i := range c.sets {
		c.sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
		for w := range c.sets[i] {
			c.sets[i][w].Owner = -1
		}
	}
	if victimTags > 0 {
		c.victimTags = make([][]BlockAddr, nsets)
		for i := range c.victimTags {
			c.victimTags[i] = make([]BlockAddr, 0, victimTags)
		}
	}
	return c
}

func (c *SetAssoc) setIndex(a BlockAddr) int { return int(a & c.setMask) }

// findWay scans the set's tag mirror for a and returns the way index,
// or -1. The scan touches only the contiguous tag words.
func (c *SetAssoc) findWay(si int, a BlockAddr) int {
	key := a | tagValid
	tg := c.tags[si*c.ways : si*c.ways+c.ways]
	for i, t := range tg {
		if t == key {
			return i
		}
	}
	return -1
}

// Lookup returns the line holding a, or nil, without updating LRU order
// or statistics. The pointer stays valid until the set is next mutated.
func (c *SetAssoc) Lookup(a BlockAddr) *Line {
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		return &c.sets[si][i]
	}
	return nil
}

// Access performs a demand lookup: on a hit the line is moved to MRU
// position and returned with ok=true; on a miss nil,false is returned.
// Hit/miss statistics are updated; a hit to a line with its prefetch bit
// set counts as a prefetch hit and clears the bit (the adaptive
// prefetcher's "useful prefetch" event, reported via the return).
func (c *SetAssoc) Access(a BlockAddr) (ln *Line, wasPrefetch bool, ok bool) {
	c.Stats.Accesses++
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		set := c.sets[si]
		wasPrefetch = set[i].Prefetch
		if wasPrefetch {
			set[i].Prefetch = false
			c.Stats.PrefetchHits++
		}
		c.touch(si, i)
		c.Stats.Hits++
		return &set[0], wasPrefetch, true
	}
	c.Stats.Misses++
	return nil, false, false
}

// touch moves way i of set si to the MRU (front) position in both the
// Line array and the tag mirror.
func (c *SetAssoc) touch(si, i int) {
	if i == 0 {
		return
	}
	set := c.sets[si]
	ln := set[i]
	copy(set[1:i+1], set[0:i])
	set[0] = ln
	tg := c.tags[si*c.ways : si*c.ways+c.ways]
	t := tg[i]
	copy(tg[1:i+1], tg[0:i])
	tg[0] = t
}

// Touch promotes a to MRU if present, without stats. It reports whether
// the line was found.
func (c *SetAssoc) Touch(a BlockAddr) bool {
	si := c.setIndex(a)
	if i := c.findWay(si, a); i >= 0 {
		c.touch(si, i)
		return true
	}
	return false
}

// Fill inserts address a at MRU position, evicting the LRU line if the
// set is full. It returns the victim (Valid=false in the returned copy
// means nothing was evicted). prefetch marks the inserted line's prefetch
// bit. The returned inserted pointer is valid until the set mutates.
func (c *SetAssoc) Fill(a BlockAddr, prefetch bool) (victim Line, inserted *Line) {
	si := c.setIndex(a)
	set := c.sets[si]
	// Refuse duplicate fills: caller must check with Lookup first.
	if c.findWay(si, a) >= 0 {
		panic(fmt.Sprintf("cache: duplicate fill of block %#x", uint64(a)))
	}
	c.Stats.Fills++
	// Prefer an invalid way; otherwise evict the true LRU (last valid).
	tg := c.tags[si*c.ways : si*c.ways+c.ways]
	vi := -1
	for i := len(set) - 1; i >= 0; i-- {
		if tg[i] == 0 {
			vi = i
			break
		}
	}
	if vi == -1 {
		vi = len(set) - 1
		victim = set[vi]
		c.Stats.Evictions++
		if victim.Dirty {
			c.Stats.DirtyEvicts++
		}
		if victim.Prefetch {
			c.Stats.UselessPf++
		}
		c.recordVictim(si, victim.Addr)
	} else {
		c.valid++
	}
	set[vi].reset()
	set[vi].Addr = a
	set[vi].Valid = true
	set[vi].Prefetch = prefetch
	set[vi].Segs = MaxSegs
	tg[vi] = a | tagValid
	c.touch(si, vi)
	return victim, &set[0]
}

// recordVictim appends a replaced address to the set's victim-tag FIFO.
func (c *SetAssoc) recordVictim(si int, a BlockAddr) {
	if c.victimTags == nil {
		return
	}
	vt := c.victimTags[si]
	if len(vt) == cap(vt) && len(vt) > 0 {
		copy(vt, vt[1:])
		vt = vt[:len(vt)-1]
	}
	c.victimTags[si] = append(vt, a)
}

// VictimTagMatch reports whether a appears in the set's victim-address
// history (FIFO victim tags), and removes it if so. Used by the adaptive
// prefetcher's harmful-prefetch check on misses.
func (c *SetAssoc) VictimTagMatch(a BlockAddr) bool {
	if c.victimTags == nil {
		return false
	}
	si := c.setIndex(a)
	vt := c.victimTags[si]
	for i := range vt {
		if vt[i] == a {
			c.victimTags[si] = append(vt[:i], vt[i+1:]...)
			return true
		}
	}
	return false
}

// AnyPrefetchInSet reports whether any valid line in a's set has its
// prefetch bit set (the conservative "victimized by a harmful prefetch"
// condition of paper §3).
func (c *SetAssoc) AnyPrefetchInSet(a BlockAddr) bool {
	set := c.sets[c.setIndex(a)]
	for i := range set {
		if set[i].Valid && set[i].Prefetch {
			return true
		}
	}
	return false
}

// ValidLines returns the number of valid lines currently cached.
func (c *SetAssoc) ValidLines() int { return c.valid }

// ForEachValid calls fn for every valid line. Mutating the cache inside
// fn is not allowed.
func (c *SetAssoc) ForEachValid(fn func(*Line)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid {
				fn(&set[i])
			}
		}
	}
}

// CheckInvariants validates internal consistency (audit support): no
// duplicate valid tags, correct set mapping, uncompressed lines stored
// at full size, invalid lines fully reset, victim-tag FIFOs within
// bounds, and the struct-of-arrays tag mirror plus valid-line counter
// exactly tracking the Line array. It returns a description of the
// first violation, or "".
func (c *SetAssoc) CheckInvariants() string {
	nvalid := 0
	for si, set := range c.sets {
		seen := map[BlockAddr]bool{}
		for i := range set {
			ln := &set[i]
			want := BlockAddr(0)
			if ln.Valid {
				want = ln.Addr | tagValid
				nvalid++
			}
			if got := c.tags[si*c.ways+i]; got != want {
				return fmt.Sprintf("set %d way %d: tag mirror %#x desynced from line (want %#x)",
					si, i, uint64(got), uint64(want))
			}
			if !ln.Valid {
				if ln.Segs != 0 || ln.Dirty || ln.Prefetch || ln.Sharers != 0 || ln.ISharers != 0 {
					return fmt.Sprintf("set %d way %d: invalid line not reset (segs %d dirty %v pf %v)",
						si, i, ln.Segs, ln.Dirty, ln.Prefetch)
				}
				continue
			}
			if ln.Segs != MaxSegs {
				return fmt.Sprintf("set %d: line %#x stored in %d segments (uncompressed cache)",
					si, uint64(ln.Addr), ln.Segs)
			}
			if seen[ln.Addr] {
				return fmt.Sprintf("set %d: duplicate tag %#x", si, uint64(ln.Addr))
			}
			seen[ln.Addr] = true
			if c.setIndex(ln.Addr) != si {
				return fmt.Sprintf("set %d: line %#x maps to set %d", si, uint64(ln.Addr), c.setIndex(ln.Addr))
			}
		}
	}
	if nvalid != c.valid {
		return fmt.Sprintf("valid-line counter %d desynced from actual count %d", c.valid, nvalid)
	}
	return ""
}

// checkPow2 panics unless v is a power of two.
func checkPow2(v int, what string) {
	if v <= 0 || bits.OnesCount(uint(v)) != 1 {
		panic(fmt.Sprintf("cache: %s (%d) must be a power of two", what, v))
	}
}

// Package cache implements the cache structures of the HPCA 2007
// compression+prefetching CMP study: the private L1s (L1, one packed
// word per way) and the shared L2 (L2), a decoupled variable-segment
// cache that is built either compressed or plain, as the conventional
// set-associative uncompressed baseline.
//
// All caches operate on 64-byte block addresses (BlockAddr). They are
// purely functional state machines: hits, fills, evictions and
// invalidations mutate tag state and report what happened; all timing is
// applied by the simulation engine on top of these results.
package cache

import (
	"fmt"
	"math/bits"
	"unsafe"
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
// with these, and internal/workload's calibration packs its samples
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

// MaxCores is the most cores a hierarchy can track: the width of a
// Line's Sharers and ISharers bitmasks.
const MaxCores = 8 * int(unsafe.Sizeof(Line{}.Sharers))

// Line is one shared-L2 tag and its metadata: Sharers/ISharers and the
// owner (Owner, SetOwner) track on-chip L1 copies and Segs the
// compressed size. The zero Line is an empty tag, so clearing the tag
// array builds an empty cache. The 4-byte fields sit ahead of the
// 1-byte ones so the struct packs into 24 bytes (TestLineSize pins it).
type Line struct {
	Addr     BlockAddr
	Sharers  uint32 // bitmask of cores whose L1D holds the line
	ISharers uint32 // bitmask of cores whose L1I holds the line
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
func (ln *Line) Owner() int { return int(ln.owner) - 1 }

// SetOwner records core c as holding the line in M state; -1 records
// that no core does.
func (ln *Line) SetOwner(c int) { ln.owner = uint8(c + 1) }

// reset clears a line to the invalid state but preserves Addr so that
// invalid tags serve as victim-address history for harmful-prefetch
// detection (the compressed cache's "extra tags").
func (ln *Line) reset() { *ln = Line{Addr: ln.Addr} }

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

// tagValid is OR-ed into a line's address to form its entry in the L2's
// struct-of-arrays tag mirror: valid lines store Addr|tagValid and
// invalid tags never carry the bit, so a lookup key (a|tagValid) can
// never match an invalid tag. An invalid tag stores 0, or Addr|tagVictim
// while it still records a victim, so a victim match never touches Line
// structs. Block addresses must stay below 2^62 (a 64-bit byte address
// needs only 58 bits of block address).
const (
	tagValid  BlockAddr = 1 << 63
	tagVictim BlockAddr = 1 << 62
)

// recycled returns s resized to n elements, every one zero, in s's
// array when it holds n (the recycling constructors' reset).
func recycled[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// checkPow2 panics unless v is a power of two.
func checkPow2(v int, what string) {
	if v <= 0 || bits.OnesCount(uint(v)) != 1 {
		panic(fmt.Sprintf("cache: %s (%d) must be a power of two", what, v))
	}
}

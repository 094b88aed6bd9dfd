// Package cache implements the cache structures of the HPCA 2007
// compression+prefetching CMP study: the private L1s (L1, one packed
// word per way) and the shared L2 (L2), a decoupled variable-segment
// cache that is built either compressed or plain, as the conventional
// set-associative uncompressed baseline. The L2 packs each tag into a
// tag word and a 2-byte metadata entry, 10 bytes in all, and keeps a
// set's tag words contiguous (64 bytes at the paper's 8 tags).
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

// addrBits is the width of the block address in a packed L1 way
// (L1Line) and in a shared-L2 tag word. A 64-bit byte address has a
// 58-bit block address, so the bound costs no simulated address; both
// caches' Fill panics on a block above maxAddr, and their lookups miss
// it.
const (
	addrBits = 58
	maxAddr  = BlockAddr(1)<<addrBits - 1
)

// MaxCores is the most cores a hierarchy can be built with, the range
// sim.Config.Validate and the commands' -cores flags accept. The
// paper's CMPs have 8 and its core-count study goes to 16. No cache
// structure depends on the bound: the L2 keeps no sharer bits, and
// coherence finds on-chip copies by probing the L1s.
const MaxCores = 32

// Line is a shared-L2 line as a value: what Fill and Resize report for
// each line they evict, and what LineRef.Line reads of a resident one.
// It leaves the owner out: an evicted line's modified data comes back
// from the owner's dirty L1D copy, which the eviction invalidates.
type Line struct {
	Addr     BlockAddr
	Dirty    bool
	Prefetch bool  // set while a prefetched line is unreferenced (paper §3)
	PfBy     uint8 // prefetcher that brought the line (0 none; see coherence.PfSource)
	Segs     uint8 // occupied 8-byte segments, 1..8; 8 = uncompressed
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

// promote moves entry i of s to the front as v, shifting s[:i] back by
// one: both caches keep each set's entries most recently used first.
func promote[T any](s []T, i int, v T) {
	copy(s[1:i+1], s[:i])
	s[0] = v
}

// checkPow2 panics unless v is a power of two.
func checkPow2(v int, what string) {
	if v <= 0 || bits.OnesCount(uint(v)) != 1 {
		panic(fmt.Sprintf("cache: %s (%d) must be a power of two", what, v))
	}
}

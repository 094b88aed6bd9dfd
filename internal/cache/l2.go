package cache

// L2 abstracts the shared second-level cache so the coherence hierarchy
// and simulation engine run unchanged over the uncompressed baseline
// (SetAssoc) and the decoupled variable-segment compressed cache.
type L2 interface {
	// Lookup returns the valid line for a or nil, with no side effects.
	Lookup(a BlockAddr) *Line
	// Access is a demand lookup with LRU update and statistics.
	// compressed reports whether the hit incurs a decompression penalty.
	Access(a BlockAddr) (ln *Line, wasPrefetch, compressed, ok bool)
	// Touch promotes a to MRU without statistics.
	Touch(a BlockAddr) bool
	// Fill inserts a occupying segs segments (ignored by an uncompressed
	// L2, which always stores 8). Victims are appended to vbuf.
	Fill(a BlockAddr, segs uint8, prefetch bool, vbuf []Line) (victims []Line, inserted *Line)
	// Resize updates the stored size of a after its data changed; it may
	// evict other lines in a compressed L2 and is a no-op when a is
	// absent or the cache is uncompressed.
	Resize(a BlockAddr, segs uint8, vbuf []Line) (victims []Line, found bool)
	// VictimMatch reports (and consumes) whether a was recently replaced
	// in its set, per the victim-address history available to the
	// adaptive prefetcher.
	VictimMatch(a BlockAddr) bool
	// AnyPrefetchInSet reports whether a's set holds an unreferenced
	// prefetched line.
	AnyPrefetchInSet(a BlockAddr) bool
	// BaseStats exposes the underlying hit/miss counters.
	BaseStats() *Stats
	// ValidLines counts resident lines.
	ValidLines() int
	// ForEachValid visits every resident line; fn must not mutate the
	// cache.
	ForEachValid(fn func(*Line))
	// CompressedHitCount returns hits that paid the decompression
	// penalty (always 0 for an uncompressed L2).
	CompressedHitCount() uint64
	// StoresCompressed reports whether this L2 stores compressed lines.
	StoresCompressed() bool
	// CheckInvariants returns a description of the first structural
	// inconsistency (duplicate tags, segment accounting, reset state),
	// or "" when the cache is sound (audit support).
	CheckInvariants() string
}

// UncompressedL2 adapts SetAssoc to the L2 interface.
type UncompressedL2 struct{ *SetAssoc }

// NewUncompressedL2 builds the baseline shared L2: totalBytes, ways-way
// set associative, with victimTags extra replaced-address tags per set
// for the adaptive prefetcher (0 disables harmful-prefetch detection).
func NewUncompressedL2(totalBytes, ways, victimTags int) UncompressedL2 {
	return UncompressedL2{NewSetAssoc(totalBytes, ways, victimTags)}
}

// Access adapts SetAssoc.Access; an uncompressed hit never pays a
// decompression penalty.
func (u UncompressedL2) Access(a BlockAddr) (*Line, bool, bool, bool) {
	ln, wasPf, ok := u.SetAssoc.Access(a)
	return ln, wasPf, false, ok
}

// Fill ignores segs: lines are stored uncompressed.
func (u UncompressedL2) Fill(a BlockAddr, segs uint8, prefetch bool, vbuf []Line) ([]Line, *Line) {
	victim, inserted := u.SetAssoc.Fill(a, prefetch)
	if victim.Valid {
		vbuf = append(vbuf, victim)
	}
	return vbuf, inserted
}

// Resize is a no-op for uncompressed storage.
func (u UncompressedL2) Resize(a BlockAddr, segs uint8, vbuf []Line) ([]Line, bool) {
	return vbuf, u.SetAssoc.Lookup(a) != nil
}

// VictimMatch consults the FIFO victim tags.
func (u UncompressedL2) VictimMatch(a BlockAddr) bool { return u.SetAssoc.VictimTagMatch(a) }

// BaseStats exposes the hit/miss counters.
func (u UncompressedL2) BaseStats() *Stats { return &u.SetAssoc.Stats }

// CompressedHitCount is always zero.
func (u UncompressedL2) CompressedHitCount() uint64 { return 0 }

// StoresCompressed reports false.
func (u UncompressedL2) StoresCompressed() bool { return false }

// CompressedL2 adapts Compressed to the L2 interface.
type CompressedL2 struct{ *Compressed }

// NewCompressedL2 builds the paper's compressed shared L2: dataBytes of
// data space, tagsPerSet address tags and dataSegsPerSet segments per set.
func NewCompressedL2(dataBytes, tagsPerSet, dataSegsPerSet int) CompressedL2 {
	return CompressedL2{NewCompressed(dataBytes, tagsPerSet, dataSegsPerSet)}
}

// VictimMatch consults the invalid-tag victim history.
func (c CompressedL2) VictimMatch(a BlockAddr) bool { return c.Compressed.InvalidTagMatch(a) }

// BaseStats exposes the hit/miss counters.
func (c CompressedL2) BaseStats() *Stats { return &c.Compressed.Stats }

// CompressedHitCount returns hits that paid the decompression penalty.
func (c CompressedL2) CompressedHitCount() uint64 { return c.Compressed.CompressedHits }

// StoresCompressed reports true.
func (c CompressedL2) StoresCompressed() bool { return true }

var (
	_ L2 = UncompressedL2{}
	_ L2 = CompressedL2{}
)

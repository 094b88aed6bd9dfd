// Package prefetch implements the paper's Power4-style stride-based
// hardware prefetcher and the adaptive throttling mechanism proposed in
// §3 of the HPCA 2007 paper.
//
// Each cache (L1I, L1D and L2, per core) has an associated prefetch
// engine with three 32-entry filter tables — positive unit stride,
// negative unit stride, and non-unit stride — and an 8-entry stream
// table. A filter table allocates a miss stream into the stream table
// when it recognizes 4 fixed-stride misses; on allocation the engine
// launches a number of consecutive startup prefetches along the stream
// (6 for L1 engines, 25 for L2 engines, "at most" under the adaptive
// scheme). Demand accesses that follow an active stream advance it,
// keeping the prefetch distance ahead of the demand stream.
//
// The adaptive mechanism is a single saturating counter per cache that
// bounds the startup-prefetch count per stream. Useful prefetches
// (demand hit consumes a prefetch bit) increment it; useless prefetches
// (prefetched line evicted unreferenced) and harmful prefetches (miss
// matches a victim tag while prefetched lines sit in the set) decrement
// it. At zero, prefetching for that cache is disabled entirely.
package prefetch

import (
	"fmt"
	"math/bits"

	"cmpsim/internal/cache"
)

// Config parameterizes one prefetch engine (paper Table 1 values are the
// defaults from L1Config/L2Config).
type Config struct {
	FilterEntries  int // entries per filter table (paper: 32; at most 64)
	StreamEntries  int // stream table entries (paper: 8)
	TrainThreshold int // fixed-stride misses to allocate a stream (paper: 4)
	StartupDepth   int // startup prefetches per stream (paper: 6 L1, 25 L2)
	MaxStride      int // |stride| bound in blocks for the non-unit table
}

// L1Config returns the paper's L1I/L1D engine parameters.
func L1Config() Config {
	return Config{FilterEntries: 32, StreamEntries: 8, TrainThreshold: 4, StartupDepth: 6, MaxStride: 64}
}

// L2Config returns the paper's L2 engine parameters.
func L2Config() Config {
	return Config{FilterEntries: 32, StreamEntries: 8, TrainThreshold: 4, StartupDepth: 25, MaxStride: 64}
}

func (c Config) validate() error {
	if c.FilterEntries <= 0 || c.StreamEntries <= 0 {
		return fmt.Errorf("prefetch: filter (%d) and stream (%d) entries must be positive", c.FilterEntries, c.StreamEntries)
	}
	if c.FilterEntries > filterSlots {
		return fmt.Errorf("prefetch: filter entries %d exceed the index's %d bits", c.FilterEntries, filterSlots)
	}
	if c.TrainThreshold < 2 {
		return fmt.Errorf("prefetch: train threshold %d must be at least 2", c.TrainThreshold)
	}
	if c.StartupDepth < 1 {
		return fmt.Errorf("prefetch: startup depth %d must be at least 1", c.StartupDepth)
	}
	if c.MaxStride < 2 {
		return fmt.Errorf("prefetch: max stride %d must be at least 2", c.MaxStride)
	}
	return nil
}

// Filter-table sentinels. Expected addresses are stored with expectKey
// OR-ed in so a lookup key can never match an empty slot; undetermined
// bases use a value whose delta from any simulated address is far
// outside the stride bound.
const (
	expectKey    cache.BlockAddr = 1 << 63
	baseSentinel cache.BlockAddr = 1 << 62
)

// filterSlots is the slot count of a filter table's two indexes. A slot
// is a bitmask over the table's entries, so a table holds at most 64.
const filterSlots = 64

// slotOf hashes a word to an index slot (Fibonacci hashing: the top six
// bits of the product).
func slotOf(x uint64) int { return int(x * 0x9E3779B97F4A7C15 >> 58) }

// filterTable tracks candidate miss streams in struct-of-arrays layout.
// Entry i is valid iff used[i] != 0 (the LRU tick starts at 1).
//
// Training does not scan the table: OnMiss runs on every demand miss and
// most misses match nothing. Two exact indexes map a hash slot to the
// bitmask of entries that hash there. exIdx holds every non-zero expect
// word, hashed whole; baseIdx every base word that is not the sentinel,
// hashed by its bucket base>>baseShift (buckets of W = 2^baseShift
// blocks, the smallest power of two >= MaxStride). A lookup visits only
// the entries of its slot or slots, in ascending index order, and
// compares the full word, so it picks the entry a linear scan in index
// order would pick. setScan is the only writer of expect and base and
// moves the entry's bits with them.
//
// Replacement order is kept in an intrusive doubly-linked list (prev/
// next/head/tail): used timestamps are assigned from a strictly
// increasing tick, so the list tail IS the argmin the old linear LRU
// scan computed — replacement becomes O(1) instead of an O(entries)
// scan per unrecognized miss. used stays as the validity marker and the
// audit cross-check of the list order.
type filterTable struct {
	expect    []cache.BlockAddr // (last+stride)|expectKey for trainable entries, else 0
	base      []cache.BlockAddr // last for valid undetermined entries, else baseSentinel
	exIdx     [filterSlots]uint64
	baseIdx   [filterSlots]uint64
	baseShift uint
	used      []uint64 // LRU timestamp; 0 = invalid
	last      []cache.BlockAddr
	stride    []int64 // fixed +1/-1 for the unit tables; 0 = undetermined
	count     []int32
	next      []int16 // toward LRU; -1 ends the list
	prev      []int16 // toward MRU; -1 ends the list
	head      int16   // MRU entry, -1 when no entry is valid
	tail      int16   // LRU entry, -1 when no entry is valid
	free      int16   // invalid-entry count
}

func newFilterTable(n, maxStride int) filterTable {
	t := filterTable{
		expect:    make([]cache.BlockAddr, n),
		base:      make([]cache.BlockAddr, n),
		baseShift: uint(bits.Len(uint(maxStride - 1))),
		used:      make([]uint64, n),
		last:      make([]cache.BlockAddr, n),
		stride:    make([]int64, n),
		count:     make([]int32, n),
		next:      make([]int16, n),
		prev:      make([]int16, n),
		head:      -1,
		tail:      -1,
		free:      int16(n),
	}
	for i := range t.base {
		t.base[i] = baseSentinel
	}
	return t
}

// baseSlot returns the baseIdx slot of base word b.
func (t *filterTable) baseSlot(b cache.BlockAddr) int { return slotOf(uint64(b >> t.baseShift)) }

// setScan writes entry i's expect and base words, moving its bit in
// both indexes.
func (t *filterTable) setScan(i int, expect, base cache.BlockAddr) {
	bit := uint64(1) << uint(i)
	if old := t.expect[i]; old != 0 {
		t.exIdx[slotOf(uint64(old))] &^= bit
	}
	if expect != 0 {
		t.exIdx[slotOf(uint64(expect))] |= bit
	}
	if old := t.base[i]; old != baseSentinel {
		t.baseIdx[t.baseSlot(old)] &^= bit
	}
	if base != baseSentinel {
		t.baseIdx[t.baseSlot(base)] |= bit
	}
	t.expect[i], t.base[i] = expect, base
}

// unlink removes entry i from the replacement list.
func (t *filterTable) unlink(i int16) {
	p, n := t.prev[i], t.next[i]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
}

// pushHead links entry i at the MRU position.
func (t *filterTable) pushHead(i int16) {
	t.prev[i] = -1
	t.next[i] = t.head
	if t.head >= 0 {
		t.prev[t.head] = i
	} else {
		t.tail = i
	}
	t.head = i
}

// refresh moves a just-touched valid entry to the MRU position.
func (t *filterTable) refresh(i int16) {
	if t.head == i {
		return
	}
	t.unlink(i)
	t.pushHead(i)
}

// streamEntry is an active prefetch stream.
type streamEntry struct {
	valid      bool
	stride     int64
	nextDemand cache.BlockAddr // next demand address expected
	nextPf     cache.BlockAddr // next address to prefetch
	used       uint64
}

// Stats counts engine activity.
type Stats struct {
	Issued       uint64 // prefetch requests handed to the hierarchy
	StreamAllocs uint64
	FilterHits   uint64 // misses that strengthened a filter entry
	Advances     uint64 // stream advances from demand accesses
}

// Engine is one stride prefetcher.
type Engine struct {
	cfg        Config
	pos        filterTable // positive unit stride
	neg        filterTable // negative unit stride
	nonunit    filterTable
	streams    []streamEntry
	tick       uint64
	cap        func() int // adaptive startup cap; nil = always cfg.StartupDepth
	probeSkips uint64     // stream allocations suppressed while disabled
	reqbuf     []cache.BlockAddr
	Stats      Stats

	// demandSlots has bit slotOf(x) set for every address x that
	// OnAccess advances a valid stream on, its nextDemand and
	// nextDemand+stride, so an access whose bit is clear advances none.
	// indexStreams recomputes it whenever a stream changes.
	demandSlots uint64
}

// New builds an engine; it panics on an invalid Config (programmer error).
func New(cfg Config) *Engine {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Engine{
		cfg:     cfg,
		pos:     newFilterTable(cfg.FilterEntries, cfg.MaxStride),
		neg:     newFilterTable(cfg.FilterEntries, cfg.MaxStride),
		nonunit: newFilterTable(cfg.FilterEntries, cfg.MaxStride),
		streams: make([]streamEntry, cfg.StreamEntries),
	}
}

// SetCap installs the adaptive controller's startup-prefetch bound. A
// nil provider (the default) means non-adaptive operation at full depth.
func (e *Engine) SetCap(cap func() int) { e.cap = cap }

// capped bounds an engine's full depth by its adaptive cap, when one is
// installed: the lesser of the two, and never below 0 (0 disables).
func capped(depth int, cap func() int) int {
	if cap != nil {
		depth = min(depth, cap())
	}
	return max(depth, 0)
}

// streamSlots returns the demandSlots bits of the valid streams.
func (e *Engine) streamSlots() uint64 {
	var m uint64
	for i := range e.streams {
		if s := &e.streams[i]; s.valid {
			m |= 1<<slotOf(uint64(s.nextDemand)) | 1<<slotOf(uint64(advance(s.nextDemand, s.stride)))
		}
	}
	return m
}

// indexStreams brings demandSlots up to date after a stream changed.
func (e *Engine) indexStreams() { e.demandSlots = e.streamSlots() }

// OnAccess informs the engine of a demand access (hit or miss) so active
// streams advance. Prefetch addresses to issue are appended to the
// returned slice, which aliases an internal buffer valid until the next
// call.
func (e *Engine) OnAccess(a cache.BlockAddr) []cache.BlockAddr {
	e.tick++
	e.reqbuf = e.reqbuf[:0]
	if e.demandSlots&(1<<slotOf(uint64(a))) == 0 {
		return e.reqbuf
	}
	for i := range e.streams {
		s := &e.streams[i]
		if !s.valid {
			continue
		}
		// Advance when the demand stream reaches (or steps past) the
		// expected next address; tolerate one skipped element.
		if a == s.nextDemand || a == advance(s.nextDemand, s.stride) {
			if a != s.nextDemand {
				s.nextDemand = advance(s.nextDemand, s.stride)
			}
			s.nextDemand = advance(s.nextDemand, s.stride)
			s.used = e.tick
			if capped(e.cfg.StartupDepth, e.cap) > 0 {
				e.reqbuf = append(e.reqbuf, s.nextPf)
				s.nextPf = advance(s.nextPf, s.stride)
				e.Stats.Advances++
				e.Stats.Issued++
			}
			e.indexStreams()
			break
		}
	}
	return e.reqbuf
}

// advance moves a block address by a signed stride.
func advance(a cache.BlockAddr, stride int64) cache.BlockAddr {
	return cache.BlockAddr(int64(a) + stride)
}

// OnMiss trains the filter tables with a demand miss and may allocate a
// stream, returning startup prefetch addresses (internal buffer, valid
// until the next call).
func (e *Engine) OnMiss(a cache.BlockAddr) []cache.BlockAddr {
	e.tick++
	e.reqbuf = e.reqbuf[:0]
	if e.train(&e.pos, a) || e.train(&e.neg, a) || e.trainNonUnit(a) {
		return e.reqbuf
	}
	// No table recognized the miss: allocate fresh candidates.
	e.alloc(&e.pos, a, 1)
	e.alloc(&e.neg, a, -1)
	e.alloc(&e.nonunit, a, 0)
	return e.reqbuf
}

// clear invalidates filter entry i.
func (t *filterTable) clear(i int) {
	t.used[i] = 0
	t.setScan(i, 0, baseSentinel)
	t.unlink(int16(i))
	t.free++
}

// train strengthens the lowest-indexed filter entry expecting address a
// (any table whose entries carry an established stride), visiting only
// the entries in a's exIdx slot.
func (e *Engine) train(t *filterTable, a cache.BlockAddr) bool {
	key := a | expectKey
	for m := t.exIdx[slotOf(uint64(key))]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if t.expect[i] != key {
			continue
		}
		t.last[i] = a
		t.count[i]++
		t.used[i] = e.tick
		e.Stats.FilterHits++
		if t.count[i] >= int32(e.cfg.TrainThreshold) {
			stride := t.stride[i]
			t.clear(i)
			e.allocStream(a, stride)
		} else {
			t.setScan(i, advance(a, t.stride[i])|expectKey, baseSentinel)
			t.refresh(int16(i))
		}
		return true
	}
	return false
}

// trainNonUnit handles the variable-stride table: the first pair of
// misses establishes the candidate stride; later misses strengthen it.
func (e *Engine) trainNonUnit(a cache.BlockAddr) bool {
	if e.train(&e.nonunit, a) {
		return true
	}
	// Second chance: derive a stride from the lowest-indexed
	// undetermined entry whose base b lies in the window [a-MaxStride,
	// a+MaxStride], i.e. b-(a-MaxStride) <= 2*MaxStride unsigned. The
	// window is at most 2W+1 blocks wide, so it spans at most three
	// consecutive W-block buckets, and the buckets of its two ends and
	// its middle a are exactly those; only their entries are visited.
	// This matches a scan of every base word as long as no simulated
	// address lies within MaxStride of baseSentinel (they are below
	// 2^58).
	t := &e.nonunit
	maxStride := int64(e.cfg.MaxStride)
	lo := a - cache.BlockAddr(maxStride)
	hi := a + cache.BlockAddr(maxStride)
	window := uint64(2 * maxStride)
	for m := t.baseIdx[t.baseSlot(lo)] | t.baseIdx[t.baseSlot(a)] | t.baseIdx[t.baseSlot(hi)]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b := t.base[i]
		if uint64(b-lo) > window {
			continue
		}
		d := int64(a) - int64(b)
		if d >= 2 && d <= maxStride || d <= -2 && d >= -maxStride {
			t.stride[i] = d
			t.last[i] = a
			t.count[i] = 2
			t.used[i] = e.tick
			t.setScan(i, advance(a, d)|expectKey, baseSentinel)
			t.refresh(int16(i))
			e.Stats.FilterHits++
			return true
		}
	}
	return false
}

// alloc installs a new filter candidate, replacing the lowest-indexed
// invalid entry when one exists (rare: entries only vacate on stream
// allocation), otherwise the list-tail LRU entry in O(1).
func (e *Engine) alloc(t *filterTable, a cache.BlockAddr, stride int64) {
	var vi int
	if t.free > 0 {
		for i, u := range t.used {
			if u == 0 {
				vi = i
				break
			}
		}
		t.free--
		t.pushHead(int16(vi))
	} else {
		vi = int(t.tail)
		t.refresh(t.tail)
	}
	t.last[vi] = a
	t.stride[vi] = stride
	t.count[vi] = 1
	t.used[vi] = e.tick
	if stride != 0 {
		t.setScan(vi, advance(a, stride)|expectKey, baseSentinel)
	} else {
		t.setScan(vi, 0, a)
	}
}

// allocStream installs a stream (LRU replacement) and queues its startup
// prefetches into reqbuf. When the adaptive controller has disabled the
// engine (depth 0), most allocations are suppressed, but every 32nd one
// issues a single probe prefetch: the paper's counter can only recover
// through hits on prefetched lines, so a disabled engine must retain a
// trickle of evidence-gathering prefetches.
func (e *Engine) allocStream(a cache.BlockAddr, stride int64) {
	d := capped(e.cfg.StartupDepth, e.cap)
	if d == 0 {
		e.probeSkips++
		if e.probeSkips%32 != 0 {
			return
		}
		d = 1
	}
	vi := 0
	for i := range e.streams {
		if !e.streams[i].valid {
			vi = i
			break
		}
		if e.streams[i].used < e.streams[vi].used {
			vi = i
		}
	}
	s := &e.streams[vi]
	s.valid = true
	s.stride = stride
	s.nextDemand = advance(a, stride)
	s.nextPf = advance(a, int64(d+1)*stride)
	s.used = e.tick
	e.indexStreams()
	e.Stats.StreamAllocs++
	for k := 1; k <= d; k++ {
		e.reqbuf = append(e.reqbuf, advance(a, int64(k)*stride))
	}
	e.Stats.Issued += uint64(d)
}

// TriggerStream allocates a stream directly (the paper lets L1 prefetch
// streams trigger L2 prefetches). The returned startup addresses alias
// the internal buffer.
func (e *Engine) TriggerStream(a cache.BlockAddr, stride int64) []cache.BlockAddr {
	e.tick++
	e.reqbuf = e.reqbuf[:0]
	if stride == 0 {
		return e.reqbuf
	}
	// Skip if an equivalent stream is already active.
	for i := range e.streams {
		s := &e.streams[i]
		if s.valid && s.stride == stride {
			d := (int64(a) - int64(s.nextDemand)) * sign(stride)
			if d >= -1 && d <= int64(e.cfg.StartupDepth) {
				return e.reqbuf
			}
		}
	}
	e.allocStream(a, stride)
	return e.reqbuf
}

// StreamStride returns the stride of the most recently used active
// stream, or 0 when none is active (test and trigger support).
func (e *Engine) StreamStride() int64 {
	best := -1
	for i := range e.streams {
		if e.streams[i].valid && (best == -1 || e.streams[i].used > e.streams[best].used) {
			best = i
		}
	}
	if best == -1 {
		return 0
	}
	return e.streams[best].stride
}

func sign(v int64) int64 {
	if v < 0 {
		return -1
	}
	return 1
}

// CheckInvariants validates stream- and filter-table state (audit
// support): active streams have a non-zero stride within the configured
// bound with their prefetch pointer a whole number of strides from the
// demand pointer, the stream slot filter covers exactly the valid
// streams, filter entries keep strides and counts in range, and the
// scan words and both indexes agree with the entries.
// It returns the first violation, or "".
func (e *Engine) CheckInvariants() string {
	for i := range e.streams {
		s := &e.streams[i]
		if !s.valid {
			continue
		}
		switch {
		case s.stride == 0:
			return fmt.Sprintf("stream %d: zero stride", i)
		case s.stride > int64(e.cfg.MaxStride) || s.stride < -int64(e.cfg.MaxStride):
			return fmt.Sprintf("stream %d: stride %d exceeds bound %d", i, s.stride, e.cfg.MaxStride)
		case (int64(s.nextPf)-int64(s.nextDemand))%s.stride != 0:
			return fmt.Sprintf("stream %d: prefetch pointer %#x not stride-aligned with demand pointer %#x (stride %d)",
				i, uint64(s.nextPf), uint64(s.nextDemand), s.stride)
		}
	}
	if want := e.streamSlots(); e.demandSlots != want {
		return fmt.Sprintf("stream slot filter %#x, streams imply %#x", e.demandSlots, want)
	}
	for _, t := range []*filterTable{&e.pos, &e.neg, &e.nonunit} {
		for i, u := range t.used {
			if u == 0 {
				// Invalid entries must carry cleared scan words so they can
				// never match a training lookup.
				if t.expect[i] != 0 || t.base[i] != baseSentinel {
					return fmt.Sprintf("filter %d: invalid entry with live scan words", i)
				}
				continue
			}
			if t.stride[i] > int64(e.cfg.MaxStride) || t.stride[i] < -int64(e.cfg.MaxStride) {
				return fmt.Sprintf("filter %d: stride %d exceeds bound %d", i, t.stride[i], e.cfg.MaxStride)
			}
			if t.count[i] < 1 || t.count[i] > int32(e.cfg.TrainThreshold) {
				return fmt.Sprintf("filter %d: count %d outside [1, %d]", i, t.count[i], e.cfg.TrainThreshold)
			}
			// The scan words must agree with the entry they summarize:
			// a trainable entry has only an expect word, an undetermined
			// one only a base word.
			if t.stride[i] != 0 {
				if want := advance(t.last[i], t.stride[i]) | expectKey; t.expect[i] != want || t.base[i] != baseSentinel {
					return fmt.Sprintf("filter %d: scan words %#x/%#x desynced (want expect %#x)",
						i, uint64(t.expect[i]), uint64(t.base[i]), uint64(want))
				}
			} else if t.base[i] != t.last[i] || t.expect[i] != 0 {
				return fmt.Sprintf("filter %d: scan words %#x/%#x desynced from last %#x",
					i, uint64(t.expect[i]), uint64(t.base[i]), uint64(t.last[i]))
			}
		}
		// Each index must hold exactly the bits its scan words imply.
		var exIdx, baseIdx [filterSlots]uint64
		for i := range t.used {
			if t.expect[i] != 0 {
				exIdx[slotOf(uint64(t.expect[i]))] |= 1 << uint(i)
			}
			if t.base[i] != baseSentinel {
				baseIdx[t.baseSlot(t.base[i])] |= 1 << uint(i)
			}
		}
		if exIdx != t.exIdx || baseIdx != t.baseIdx {
			return "filter index desynced from the scan words"
		}
		// The replacement list must visit exactly the valid entries in
		// strictly decreasing used order (MRU to LRU).
		visited := 0
		prevUsed := ^uint64(0)
		for i := t.head; i >= 0; i = t.next[i] {
			if t.used[i] == 0 {
				return fmt.Sprintf("filter %d: invalid entry linked in replacement list", i)
			}
			if t.used[i] >= prevUsed {
				return fmt.Sprintf("filter %d: replacement list out of LRU order", i)
			}
			prevUsed = t.used[i]
			visited++
			if visited > len(t.used) {
				return "filter replacement list has a cycle"
			}
		}
		if visited != len(t.used)-int(t.free) {
			return fmt.Sprintf("filter replacement list links %d entries, want %d valid",
				visited, len(t.used)-int(t.free))
		}
	}
	return ""
}

// CheckInvariants for the sequential baseline: a live tagged window
// must be well-ordered.
func (s *Sequential) CheckInvariants() string {
	if s.windowValid && s.windowEnd < s.windowStart {
		return fmt.Sprintf("window [%#x, %#x] inverted", uint64(s.windowStart), uint64(s.windowEnd))
	}
	return ""
}

// CorruptStream deliberately corrupts stream-table state for
// fault-injection tests: the first valid stream's stride is zeroed (or,
// with no active stream, a zero-stride entry is fabricated), a state
// CheckInvariants must catch.
func (e *Engine) CorruptStream() {
	defer e.indexStreams()
	for i := range e.streams {
		if e.streams[i].valid {
			e.streams[i].stride = 0
			return
		}
	}
	e.streams[0] = streamEntry{valid: true, stride: 0}
}

// Adaptive is the paper's saturating counter: one per cache. It starts
// saturated at Max (normal prefetching) and is stepped by the three
// event kinds. Cap() is the allowed startup-prefetch count; zero
// disables prefetching for the associated cache.
type Adaptive struct {
	counter int
	max     int

	// Event counters for analysis.
	UsefulEvents  uint64
	UselessEvents uint64
	HarmfulEvents uint64
}

// NewAdaptive returns a controller saturating at max (use the engine's
// startup depth: 6 for L1, 25 for L2).
func NewAdaptive(max int) *Adaptive {
	if max < 1 {
		panic("prefetch: adaptive max must be positive")
	}
	return &Adaptive{counter: max, max: max}
}

// Useful records a demand hit that consumed a prefetch bit.
func (a *Adaptive) Useful() {
	a.UsefulEvents++
	if a.counter < a.max {
		a.counter++
	}
}

// Useless records a prefetched line evicted without being referenced.
func (a *Adaptive) Useless() {
	a.UselessEvents++
	if a.counter > 0 {
		a.counter--
	}
}

// Harmful records a miss attributed to a prefetch-displaced victim.
func (a *Adaptive) Harmful() {
	a.HarmfulEvents++
	if a.counter > 0 {
		a.counter--
	}
}

// Cap returns the current startup-prefetch bound.
func (a *Adaptive) Cap() int { return a.counter }

package workload

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"cmpsim/internal/cache"
)

// SizeRegistry holds shared tables of version-0 block sizes, one per
// (sim seed, calibrated knob, codec): the three inputs besides the
// address that fix a block's version-0 contents, so every data model
// with the same key prices every block identically and may reuse each
// other's sizes. Dirtied versions are never shared: which blocks a run
// dirties, and how often, depends on its own store interleaving.
//
// The registry is bounded. Its tables together hold at most a constant
// number of entries (page slots, 16 bytes each; see maxSharedSlots);
// making room for a new table or a table's growth evicts whole tables,
// least recently used first, and a table that cannot get room stops
// growing. An evicted table stays valid for the models that hold it —
// its sizes are still exact — but no new model receives it. A model
// whose table cannot take a page keeps that size in its own memo. All
// methods are safe for concurrent use; lookups take no lock.
type SizeRegistry struct {
	mu     sync.Mutex
	limit  int // cap on the slots of registered tables
	slots  int // slots of registered tables
	clock  uint64
	tables map[sizeKey]*sizeTable
}

// sizeKey identifies one shared table.
type sizeKey struct {
	seed  uint64 // the sim seed
	knob  uint64 // math.Float64bits of the calibrated knob
	codec string
}

const (
	// maxSharedSlots caps a registry's entries: 2^20 page slots of 16
	// bytes, 16 MB, holding at most 786,432 pages at three-quarters
	// load. The whole experiments -quick suite ends just under it; the
	// paper-scale suite, whose tables would pass 1.6 million slots,
	// evicts 16 tables under it and still shares 208 M sizes, against
	// 211 M with no cap (DESIGN.md §6f).
	maxSharedSlots = 1 << 20
	// sizeTableMinSlots is a new table's slot count.
	sizeTableMinSlots = 1 << 8
	// pageBits is log2 of the blocks one page slot sizes.
	pageBits = 4
)

// NewSizeRegistry returns an empty registry holding at most
// maxSharedSlots entries.
func NewSizeRegistry() *SizeRegistry { return newSizeRegistry(maxSharedSlots) }

// newSizeRegistry returns an empty registry holding at most limit
// entries; limit must be at least sizeTableMinSlots.
func newSizeRegistry(limit int) *SizeRegistry {
	return &SizeRegistry{limit: limit, tables: make(map[sizeKey]*sizeTable)}
}

// table returns the registered table for k, creating it if there is
// none, and marks it most recently used. evicted counts the tables
// evicted to make room for a new one; evicting every other table always
// makes enough, since the cap is at least one new table's slots.
func (r *SizeRegistry) table(k sizeKey) (t *sizeTable, evicted int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock++
	if t = r.tables[k]; t != nil {
		t.stamp = r.clock
		return t, 0
	}
	_, evicted = r.makeRoomLocked(nil, sizeTableMinSlots)
	t = &sizeTable{reg: r, stamp: r.clock, slots: sizeTableMinSlots}
	t.cur.Store(newPageSlots(sizeTableMinSlots))
	r.tables[k] = t
	r.slots += sizeTableMinSlots
	return t, evicted
}

// grow charges n more slots to the registered table t and marks it most
// recently used, or reports false if t was evicted or no room can be
// made without evicting t itself.
func (r *SizeRegistry) grow(t *sizeTable, n int) (ok bool, evicted int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t.evicted {
		return false, 0
	}
	if ok, evicted = r.makeRoomLocked(t, n); ok {
		r.clock++
		t.stamp = r.clock
		t.slots += n
		r.slots += n
	}
	return ok, evicted
}

// makeRoomLocked evicts least recently used tables other than keep until
// n more slots fit under the cap, and reports whether they do.
func (r *SizeRegistry) makeRoomLocked(keep *sizeTable, n int) (ok bool, evicted int) {
	for r.slots+n > r.limit {
		var victim *sizeTable
		var vk sizeKey
		for k, t := range r.tables {
			if t != keep && (victim == nil || t.stamp < victim.stamp) {
				victim, vk = t, k
			}
		}
		if victim == nil {
			return false, evicted
		}
		delete(r.tables, vk)
		r.slots -= victim.slots
		victim.evicted = true
		evicted++
	}
	return true, evicted
}

// sizeTable is one shared table of version-0 sizes. It is open-addressed
// over pages of 1<<pageBits consecutive blocks, probed linearly from a
// multiplicative hash of the page number: a slot holds the page number
// plus one (0 marks an empty slot) and the page's sizes, 4 bits a block,
// 0 meaning "not sized". A written size never changes. Readers load the
// current slot array and probe it with atomic loads and no lock; writers
// serialize on mu, and growth publishes a new array, so a reader still
// probing the old one at worst misses a size and prices it afresh.
type sizeTable struct {
	reg *SizeRegistry
	cur atomic.Pointer[pageSlots]

	mu    sync.Mutex // serializes writers
	pages int        // occupied slots; guarded by mu

	// Guarded by reg.mu.
	slots   int    // slots charged to the registry
	stamp   uint64 // registry clock at the last use
	evicted bool
}

type pageSlots struct {
	s     []sizePage
	shift uint // 64 - log2(len(s))
}

type sizePage struct {
	key   atomic.Uint64 // page number + 1; 0 = empty
	sizes atomic.Uint64 // block i of the page in bits 4i..4i+3
}

func newPageSlots(n int) *pageSlots {
	return &pageSlots{s: make([]sizePage, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
}

// pageOf returns a's page key and the shift of its size in the page.
func pageOf(a cache.BlockAddr) (key uint64, shift uint) {
	return uint64(a)>>pageBits + 1, uint(a&(1<<pageBits-1)) * 4
}

// find returns the slot holding key and true, or the empty slot that
// ends key's probe chain and false.
func (p *pageSlots) find(key uint64) (int, bool) {
	mask := len(p.s) - 1
	for i := int(key * 0x9E3779B97F4A7C15 >> p.shift); ; i = (i + 1) & mask {
		switch p.s[i].key.Load() {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// lookup returns a's shared size, or 0 if the table has none.
func (t *sizeTable) lookup(a cache.BlockAddr) uint8 {
	key, sh := pageOf(a)
	p := t.cur.Load()
	if i, ok := p.find(key); ok {
		return uint8(p.s[i].sizes.Load() >> sh & 0xF)
	}
	return 0
}

// store publishes a's size s (1..15) unless the table already holds one
// for a. It reports false, dropping the size, when a's page does not fit
// (the table is three-quarters full and cannot grow), and returns how
// many tables the registry evicted to let the table grow.
func (t *sizeTable) store(a cache.BlockAddr, s uint8) (ok bool, evicted int) {
	key, sh := pageOf(a)
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.cur.Load()
	i, found := p.find(key)
	if found {
		if w := p.s[i].sizes.Load(); w>>sh&0xF == 0 {
			p.s[i].sizes.Store(w | uint64(s)<<sh)
		}
		return true, 0
	}
	if (t.pages+1)*4 > len(p.s)*3 {
		if ok, evicted = t.reg.grow(t, len(p.s)); !ok {
			return false, evicted
		}
		p = t.rehash(2 * len(p.s))
		i, _ = p.find(key)
	}
	p.s[i].sizes.Store(uint64(s) << sh)
	p.s[i].key.Store(key)
	t.pages++
	return true, evicted
}

// rehash moves every page into a new array of n slots and publishes it.
// Callers hold mu.
func (t *sizeTable) rehash(n int) *pageSlots {
	old, p := t.cur.Load(), newPageSlots(n)
	for i := range old.s {
		if key := old.s[i].key.Load(); key != 0 {
			j, _ := p.find(key)
			p.s[j].sizes.Store(old.s[i].sizes.Load())
			p.s[j].key.Store(key)
		}
	}
	t.cur.Store(p)
	return p
}

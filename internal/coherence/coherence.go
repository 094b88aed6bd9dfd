// Package coherence implements the on-chip memory hierarchy of the
// paper's baseline CMP: per-core private write-back L1 instruction and
// data caches kept coherent with an inclusive shared L2 by an MSI
// protocol. The L2 records each line's owner but keeps no sharer bits:
// the L1s are the directory, and a coherence action finds a block's
// on-chip copies by probing every core's L1 in ascending core order.
// L1s communicate with memory only through the shared L2.
//
// The hierarchy is a functional state machine: Access, PrefetchL1 and
// PrefetchL2 mutate cache state and return an AccessResult describing
// every event the timing model needs to price (hit levels, decompression
// penalties, coherence invalidations, dirty forwards, memory fetches and
// writebacks) and every event the adaptive prefetcher consumes (useful,
// useless and harmful prefetch detections).
package coherence

import (
	"fmt"

	"cmpsim/internal/cache"
)

// Kind distinguishes the three demand access types.
type Kind uint8

// Access kinds.
const (
	Load Kind = iota
	Store
	IFetch
)

// String returns the access kind name.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case IFetch:
		return "ifetch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// PfSource identifies which prefetcher brought a line into a cache, for
// per-prefetcher coverage/accuracy accounting (paper Table 4).
type PfSource uint8

// Prefetch sources stored in cache.LineRef.PfBy and cache.L1Line.PfBy.
const (
	PfNone PfSource = iota
	PfL1I
	PfL1D
	PfL2
)

// String returns the prefetcher name.
func (p PfSource) String() string {
	switch p {
	case PfNone:
		return "none"
	case PfL1I:
		return "L1I"
	case PfL1D:
		return "L1D"
	case PfL2:
		return "L2"
	default:
		return fmt.Sprintf("pf(%d)", uint8(p))
	}
}

// SizeFunc reports the current FPC-compressed size of a block in
// segments (1..8). The simulation engine derives it from the workload's
// data model; an always-8 function models incompressible data.
type SizeFunc func(cache.BlockAddr) uint8

// Config sizes the hierarchy.
type Config struct {
	Cores   int
	L1Bytes int // per L1 (I and D separately)
	L1Ways  int
	L2      cache.L2
	Size    SizeFunc
}

// AccessResult reports everything one demand access did. Slice fields
// alias buffers owned by the Hierarchy and are valid until the next call.
type AccessResult struct {
	L1Hit bool
	L2Hit bool

	// Prefetch-bit events (adaptive prefetcher inputs).
	L1PrefetchHit  bool     // L1 hit consumed a prefetch bit
	L1PfBy         PfSource // which prefetcher had brought that line
	L2PrefetchHit  bool
	L2PfBy         PfSource
	L1UselessEvict int // L1 victims evicted with prefetch bit set
	L2UselessEvict int
	// L1Harmful is always false: the L1s keep no victim tags, so a
	// harmful prefetch is detected only at the L2.
	L1Harmful bool
	L2Harmful bool // miss matched an L2 invalid/victim tag with pf lines in set

	// Timing inputs.
	L2CompressedHit bool  // decompression penalty applies
	StoreUpgrade    bool  // store to a line shared by other L1s
	DirtyForward    bool  // data supplied by another core's modified L1
	MemFetch        bool  // line fetched from off-chip memory
	FetchSegs       uint8 // FPC size of the fetched line (link compression)
	Invalidations   int   // L1 copies invalidated by coherence actions

	// Off-chip writebacks triggered by this access (dirty L2 victims).
	// Each entry is the victim's block address; the link layer computes
	// its transfer size.
	Writebacks []cache.BlockAddr

	// L1 writeback of a dirty victim into the L2 (on-chip traffic only,
	// but it can resize a compressed L2 line and evict).
	L1DirtyVictim bool
}

// PrefetchOutcome reports what a prefetch fill did.
type PrefetchOutcome struct {
	// AlreadyPresent: the target cache already held the line; the
	// prefetch was redundant and nothing was transferred.
	AlreadyPresent bool
	MemFetch       bool
	FetchSegs      uint8
	L2Hit          bool // L1 prefetch satisfied by the shared L2
	L2Compressed   bool
	// L2PrefetchHit: the L1 prefetch consumed an L2 line's prefetch bit
	// (the L2 prefetcher's work was useful — it staged the line on chip).
	L2PrefetchHit  bool
	L2PfBy         PfSource
	Writebacks     []cache.BlockAddr
	L2UselessEvict int
	L1UselessEvict int
	Invalidations  int
}

// Hierarchy is the coherent two-level cache system.
type Hierarchy struct {
	cfg  Config
	L1I  []*cache.L1
	L1D  []*cache.L1
	L2   cache.L2
	size SizeFunc

	vbuf []cache.Line      // scratch victim buffer
	wbuf []cache.BlockAddr // scratch writeback buffer

	// OnL2Size, when non-nil, observes every L2 fill and resize with the
	// stored segment count (audit support: the shadow checker records
	// and verifies sizes at the only sites allowed to change them).
	OnL2Size func(a cache.BlockAddr, segs uint8)

	// Protocol event counters.
	StoreUpgrades  uint64
	DirtyForwards  uint64
	InclusionInval uint64
	CoherenceInval uint64
	L2Writebacks   uint64
	L1Writebacks   uint64
}

// New builds a hierarchy; cfg.L2 and cfg.Size must be set.
func New(cfg Config) *Hierarchy { return Recycle(nil, cfg) }

// Recycle builds New's hierarchy in old's storage: each core's L1s are
// rebuilt in old's (cache.RecycleL1), so the result behaves exactly
// like New's. Only old's L1I and L1D are read, and old may have any
// core count or be nil; nothing may use it any more. cfg.L2 is the
// caller's to build, in old.L2's storage or not.
func Recycle(old *Hierarchy, cfg Config) *Hierarchy {
	if cfg.Cores <= 0 || cfg.Cores > cache.MaxCores {
		panic(fmt.Sprintf("coherence: cores must be in 1..%d", cache.MaxCores))
	}
	if cfg.L2 == nil || cfg.Size == nil {
		panic("coherence: L2 and Size are required")
	}
	h := &Hierarchy{cfg: cfg, L2: cfg.L2, size: cfg.Size}
	if old == nil {
		old = &Hierarchy{}
	}
	h.L1I = recycleL1s(old.L1I, cfg)
	h.L1D = recycleL1s(old.L1D, cfg)
	return h
}

// recycleL1s builds cfg's L1s of one kind, core c's in old[c]'s storage
// where old has one.
func recycleL1s(old []*cache.L1, cfg Config) []*cache.L1 {
	l1s := make([]*cache.L1, cfg.Cores)
	for c := range l1s {
		if c < len(old) {
			l1s[c] = cache.RecycleL1(old[c], cfg.L1Bytes, cfg.L1Ways)
		} else {
			l1s[c] = cache.NewL1(cfg.L1Bytes, cfg.L1Ways)
		}
	}
	return l1s
}

// l1For selects core c's L1 for the access kind.
func (h *Hierarchy) l1For(core int, kind Kind) *cache.L1 {
	if kind == IFetch {
		return h.L1I[core]
	}
	return h.L1D[core]
}

// FastHit retires the common demand access — an L1 hit whose line has
// no pending prefetch bit and, for stores, is already in M state — in
// one step: stats and LRU promotion only, no AccessResult, no L2 walk,
// no directory traffic. It returns false without side effects whenever
// the full Access path is required (miss, prefetch-bit consumption,
// store upgrade); the caller must then run Access, which repeats the
// lookup. The hierarchy state and statistics after a successful FastHit
// are bit-identical to what Access would have produced.
func (h *Hierarchy) FastHit(core int, kind Kind, a cache.BlockAddr) bool {
	return h.l1For(core, kind).FastHit(a, kind == Store)
}

// Access performs a demand access by core for kind at block a and
// returns the full event record. The line ends up in the issuing L1
// (MRU) and in the L2 (inclusion).
func (h *Hierarchy) Access(core int, kind Kind, a cache.BlockAddr) AccessResult {
	var r AccessResult
	h.wbuf = h.wbuf[:0]
	l1 := h.l1For(core, kind)

	if ln, wasPf, ok := l1.Access(a); ok {
		r.L1Hit = true
		if wasPf {
			r.L1PrefetchHit = true
			r.L1PfBy = PfSource(ln.PfBy())
			// The prefetch proved useful: clear the inclusion copy's
			// bit too so its later L2 eviction is not miscounted as a
			// useless prefetch.
			if l2ln := h.L2.Lookup(a); l2ln.Valid() {
				l2ln.ClearPrefetch()
			}
		}
		if kind == Store && !ln.Dirty() {
			// Upgrade: invalidate the other cores' L1D copies.
			r.StoreUpgrade = true
			h.StoreUpgrades++
			l2ln := h.L2.Lookup(a)
			r.Invalidations += h.invalidateOthers(l2ln, core, a)
			l1.SetDirty(a, true)
			if l2ln.Valid() {
				l2ln.SetOwner(core)
			}
		}
		r.Writebacks = h.wbuf
		return r
	}

	// L1 miss: go to the shared L2.
	l2ln, wasPf, compressed, ok := h.L2.Access(a)
	if ok {
		r.L2Hit = true
		r.L2CompressedHit = compressed
		if wasPf {
			r.L2PrefetchHit = true
			r.L2PfBy = PfSource(l2ln.PfBy())
		}
		// If another core holds the line modified, it must supply the
		// data (writeback to L2) before we proceed.
		if o := l2ln.Owner(); o >= 0 && o != core {
			r.DirtyForward = true
			h.DirtyForwards++
			h.L1D[o].SetDirty(a, false)
			l2ln.MarkDirty()
			l2ln.SetOwner(-1)
		}
	} else {
		// L2 miss: harmful-prefetch detection via the extra tags, then
		// fetch from memory and fill the L2.
		if h.L2.VictimMatch(a) && h.L2.AnyPrefetchInSet(a) {
			r.L2Harmful = true
		}
		r.MemFetch = true
		r.FetchSegs = h.clampSegs(h.size(a))
		h.vbuf = h.vbuf[:0]
		victims, inserted := h.L2.Fill(a, r.FetchSegs, false, h.vbuf)
		h.vbuf = victims // keep the grown backing array for reuse
		h.noteL2Size(a, inserted.Segs())
		h.handleL2Victims(victims, &r)
		l2ln = inserted
	}

	// Coherence action for the requester. A block the L2 missed has no
	// L1 copy to invalidate (inclusion), so only a hit walks the L1Ds.
	if kind == Store {
		if ok {
			r.Invalidations += h.invalidateOthers(l2ln, core, a)
		}
		l2ln.SetOwner(core)
	}

	// Fill the L1; a dirty victim is written back into the L2.
	h.fillL1(l1, core, kind, a, false, PfNone, &r)
	r.Writebacks = h.wbuf
	return r
}

// clampSegs bounds a SizeFunc result to the legal 1..8 range.
func (h *Hierarchy) clampSegs(s uint8) uint8 {
	if s < 1 {
		return 1
	}
	if s > cache.MaxSegs {
		return cache.MaxSegs
	}
	return s
}

// invalidateOthers invalidates every other core's L1D copy of a, whose
// L2 line is ln, and returns how many it invalidated. A remote modified
// copy's data comes back to the L2, and a remote owner loses ownership.
func (h *Hierarchy) invalidateOthers(ln cache.LineRef, core int, a cache.BlockAddr) int {
	if !ln.Valid() {
		return 0
	}
	n, dirty := invalidateAll(h.L1D, core, a)
	h.CoherenceInval += uint64(n)
	if dirty {
		ln.MarkDirty()
	}
	if o := ln.Owner(); o >= 0 && o != core {
		ln.SetOwner(-1)
	}
	return n
}

// invalidateAll invalidates a in every L1 of l1s except core skip's
// (-1 skips none), in ascending core order, and returns how many copies
// it removed and whether one of them was modified.
func invalidateAll(l1s []*cache.L1, skip int, a cache.BlockAddr) (n int, dirty bool) {
	for c, l1 := range l1s {
		if c == skip {
			continue
		}
		if old := l1.Invalidate(a); old.Valid() {
			n++
			dirty = dirty || old.Dirty()
		}
	}
	return n, dirty
}

// fillL1 inserts a into core's L1 for kind and writes a dirty victim
// back into the L2 (with recompression/resize). A clean victim leaves
// silently: no L2 state records which L1s hold a line.
func (h *Hierarchy) fillL1(l1 *cache.L1, core int, kind Kind, a cache.BlockAddr, prefetch bool, by PfSource, r *AccessResult) {
	victim := l1.Fill(a, prefetch, kind == Store && !prefetch, uint8(by))
	if !victim.Valid() {
		return
	}
	if victim.Prefetch() {
		r.L1UselessEvict++
	}
	if !victim.Dirty() {
		return
	}
	va := victim.Addr()
	l2ln := h.L2.Lookup(va)
	if !l2ln.Valid() {
		// Inclusion guarantees the L2 holds every L1 line; a missing
		// dirty victim indicates a protocol bug.
		panic(fmt.Sprintf("coherence: dirty L1 victim %#x absent from L2", uint64(va)))
	}
	h.L1Writebacks++
	r.L1DirtyVictim = true
	l2ln.MarkDirty()
	if l2ln.Owner() == core {
		l2ln.SetOwner(-1)
	}
	if h.L2.StoresCompressed() {
		// Recompress: the stored size tracks current contents.
		segs := h.clampSegs(h.size(va))
		h.vbuf = h.vbuf[:0]
		victims, _ := h.L2.Resize(va, segs, h.vbuf)
		h.vbuf = victims
		h.noteL2Size(va, segs)
		h.handleL2Victims(victims, r)
	}
}

// handleL2Victims processes L2 evictions: inclusion invalidations of L1
// copies (retrieving modified data), useless-prefetch accounting and
// dirty writebacks to memory.
func (h *Hierarchy) handleL2Victims(victims []cache.Line, r *AccessResult) {
	for i := range victims {
		v := &victims[i]
		dirty := v.Dirty
		if v.Prefetch {
			r.L2UselessEvict++
		}
		// Inclusion: invalidate every L1 copy, the L1Ds then the L1Is.
		// An unreferenced L2-engine prefetch has none (AuditMSI checks
		// that no L1 holds one), so its walk is skipped.
		if !v.Prefetch || PfSource(v.PfBy) != PfL2 {
			nd, dd := invalidateAll(h.L1D, -1, v.Addr)
			ni, _ := invalidateAll(h.L1I, -1, v.Addr)
			h.InclusionInval += uint64(nd + ni)
			r.Invalidations += nd + ni
			dirty = dirty || dd
		}
		if dirty {
			h.L2Writebacks++
			h.wbuf = append(h.wbuf, v.Addr)
		}
	}
}

// PrefetchL1 fetches a into core's L1 (I or D per kind) on behalf of the
// L1 prefetcher, filling the L2 first if needed (inclusion). The line's
// prefetch bit is set in both levels.
func (h *Hierarchy) PrefetchL1(core int, kind Kind, a cache.BlockAddr, by PfSource) PrefetchOutcome {
	var out PrefetchOutcome
	h.wbuf = h.wbuf[:0]
	l1 := h.l1For(core, kind)
	if l1.Lookup(a).Valid() {
		out.AlreadyPresent = true
		return out
	}
	var r AccessResult
	l2ln := h.L2.Touch(a)
	if l2ln.Valid() {
		out.L2Hit = true
		out.L2Compressed = l2ln.Segs() < cache.MaxSegs
		if l2ln.Prefetch() {
			l2ln.ClearPrefetch()
			out.L2PrefetchHit = true
			out.L2PfBy = PfSource(l2ln.PfBy())
			h.L2.BaseStats().PrefetchHits++
		}
		// A modified copy in another L1 stays put: prefetching does not
		// steal ownership; skip the prefetch instead (conservative).
		if o := l2ln.Owner(); o >= 0 && o != core {
			out.AlreadyPresent = true
			return out
		}
	} else {
		out.MemFetch = true
		out.FetchSegs = h.clampSegs(h.size(a))
		h.vbuf = h.vbuf[:0]
		victims, inserted := h.L2.Fill(a, out.FetchSegs, true, h.vbuf)
		h.vbuf = victims
		inserted.SetPfBy(uint8(by))
		h.noteL2Size(a, inserted.Segs())
		h.handleL2Victims(victims, &r)
		l2ln = inserted
	}
	h.fillL1(l1, core, kind, a, true, by, &r)
	out.Writebacks = h.wbuf
	out.L2UselessEvict = r.L2UselessEvict
	out.L1UselessEvict = r.L1UselessEvict
	out.Invalidations = r.Invalidations
	return out
}

// PrefetchL2 fetches a into the shared L2 on behalf of core's L2
// prefetcher. No L1 is filled.
func (h *Hierarchy) PrefetchL2(core int, a cache.BlockAddr, by PfSource) PrefetchOutcome {
	var out PrefetchOutcome
	h.wbuf = h.wbuf[:0]
	if h.L2.Lookup(a).Valid() {
		out.AlreadyPresent = true
		return out
	}
	out.MemFetch = true
	out.FetchSegs = h.clampSegs(h.size(a))
	var r AccessResult
	h.vbuf = h.vbuf[:0]
	victims, inserted := h.L2.Fill(a, out.FetchSegs, true, h.vbuf)
	h.vbuf = victims
	inserted.SetPfBy(uint8(by))
	h.noteL2Size(a, inserted.Segs())
	h.handleL2Victims(victims, &r)
	out.Writebacks = h.wbuf
	out.L2UselessEvict = r.L2UselessEvict
	out.Invalidations = r.Invalidations
	return out
}

// noteL2Size reports an L2 fill/resize to the audit observer, if any.
func (h *Hierarchy) noteL2Size(a cache.BlockAddr, segs uint8) {
	if h.OnL2Size != nil {
		h.OnL2Size(a, segs)
	}
}

// AuditMSI verifies the MSI state (audit support): inclusion (every L1
// line resident in the L2), that no L1 holds a line the L2 marks as an
// unreferenced L2-engine prefetch (the premise on which an L2 victim's
// inclusion walk is skipped), owners within the configured cores, and
// ownership: an owning core exists and holds the line modified in its
// L1D, no other L1D holds a copy, and no unowned line has a modified
// copy. It returns the first violation, or "".
func (h *Hierarchy) AuditMSI() string {
	var bad string
	check := func(which string, core int, c *cache.L1) {
		c.ForEachValid(func(ln cache.L1Line) {
			if bad != "" {
				return
			}
			switch l2ln := h.L2.Lookup(ln.Addr()); {
			case !l2ln.Valid():
				bad = fmt.Sprintf("%s[%d] line %#x not in L2", which, core, uint64(ln.Addr()))
			case l2ln.Prefetch() && PfSource(l2ln.PfBy()) == PfL2:
				bad = fmt.Sprintf("%s[%d] holds %#x, which the L2 marks an unreferenced L2 prefetch", which, core, uint64(ln.Addr()))
			}
		})
	}
	for c := 0; c < h.cfg.Cores; c++ {
		check("L1I", c, h.L1I[c])
		check("L1D", c, h.L1D[c])
	}
	if bad != "" {
		return bad
	}
	h.L2.ForEachValid(func(ln cache.LineRef) {
		if bad != "" {
			return
		}
		a, o := ln.Addr(), ln.Owner()
		if o >= h.cfg.Cores {
			bad = fmt.Sprintf("L2 line %#x has owner %d beyond %d cores", uint64(a), o, h.cfg.Cores)
			return
		}
		for c := 0; c < h.cfg.Cores; c++ {
			dln := h.L1D[c].Lookup(a)
			switch {
			case c == o && !dln.Dirty():
				bad = fmt.Sprintf("L2 line %#x owned by core %d whose L1D copy is %s", uint64(a), o,
					map[bool]string{true: "clean", false: "absent"}[dln.Valid()])
			case c != o && dln.Dirty():
				bad = fmt.Sprintf("L1D[%d] holds %#x modified but L2 owner is %d", c, uint64(a), o)
			case c != o && o >= 0 && dln.Valid():
				bad = fmt.Sprintf("L1D[%d] holds %#x while core %d owns it", c, uint64(a), o)
			}
			if bad != "" {
				return
			}
		}
	})
	return bad
}

// Package coherence implements the on-chip memory hierarchy of the
// paper's baseline CMP: per-core private write-back L1 instruction and
// data caches kept coherent with an inclusive shared L2 by an MSI
// protocol. The L2 holds full knowledge of on-chip L1 sharers via
// per-line sharer bits; L1s communicate with memory only through the
// shared L2.
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
	"math/bits"

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

	// coreBits masks sharer bits to the configured cores. The protocol
	// walks only these; a bit beyond them is left for AuditMSI to report.
	coreBits uint32

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
	h := &Hierarchy{cfg: cfg, L2: cfg.L2, size: cfg.Size, coreBits: uint32(1)<<uint(cfg.Cores) - 1}
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
			// Upgrade: invalidate other sharers through the L2 directory.
			r.StoreUpgrade = true
			h.StoreUpgrades++
			r.Invalidations += h.invalidateOtherSharers(core, a)
			l1.SetDirty(a, true)
			if l2ln := h.L2.Lookup(a); l2ln.Valid() {
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

	// Coherence action for the requester.
	if kind == Store {
		r.Invalidations += h.invalidateOtherSharersLine(l2ln, core, a)
		l2ln.SetOwner(core)
	}
	h.addSharer(l2ln, core, kind)

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

// addSharer records core in the L2 line's sharer bits.
func (h *Hierarchy) addSharer(ln cache.LineRef, core int, kind Kind) {
	if kind == IFetch {
		ln.SetISharers(ln.ISharers() | 1<<uint(core))
	} else {
		ln.SetSharers(ln.Sharers() | 1<<uint(core))
	}
}

// invalidateOtherSharers invalidates every other core's L1D copy of a,
// using the L2 directory bits. Returns the number of invalidations.
func (h *Hierarchy) invalidateOtherSharers(core int, a cache.BlockAddr) int {
	ln := h.L2.Lookup(a)
	return h.invalidateOtherSharersLine(ln, core, a)
}

func (h *Hierarchy) invalidateOtherSharersLine(ln cache.LineRef, core int, a cache.BlockAddr) int {
	if !ln.Valid() {
		return 0
	}
	n := 0
	sharers := ln.Sharers()
	for m := sharers & h.coreBits &^ (1 << uint(core)); m != 0; m &= m - 1 {
		c := bits.TrailingZeros32(m)
		if old := h.L1D[c].Invalidate(a); old.Valid() {
			n++
			h.CoherenceInval++
			if old.Dirty() {
				// The remote M copy's data comes back to the L2.
				ln.MarkDirty()
			}
		}
		sharers &^= 1 << uint(c)
	}
	ln.SetSharers(sharers)
	if o := ln.Owner(); o >= 0 && o != core {
		ln.SetOwner(-1)
	}
	return n
}

// fillL1 inserts a into core's L1 for kind, handling the dirty victim
// writeback into the L2 (with recompression/resize) and sharer-bit
// bookkeeping for the replaced line.
func (h *Hierarchy) fillL1(l1 *cache.L1, core int, kind Kind, a cache.BlockAddr, prefetch bool, by PfSource, r *AccessResult) {
	victim := l1.Fill(a, prefetch, kind == Store && !prefetch, uint8(by))
	if !victim.Valid() {
		return
	}
	if victim.Prefetch() {
		r.L1UselessEvict++
	}
	// Non-silent eviction: clear the sharer bit; write dirty data back.
	va := victim.Addr()
	if l2ln := h.L2.Lookup(va); l2ln.Valid() {
		if kind == IFetch {
			l2ln.SetISharers(l2ln.ISharers() &^ (1 << uint(core)))
		} else {
			l2ln.SetSharers(l2ln.Sharers() &^ (1 << uint(core)))
		}
		if victim.Dirty() {
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
	} else if victim.Dirty() {
		// Inclusion guarantees the L2 holds every L1 line; a missing
		// dirty victim indicates a protocol bug.
		panic(fmt.Sprintf("coherence: dirty L1 victim %#x absent from L2", uint64(va)))
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
		// Inclusion: invalidate every L1 copy.
		for m := v.Sharers & h.coreBits; m != 0; m &= m - 1 {
			if old := h.L1D[bits.TrailingZeros32(m)].Invalidate(v.Addr); old.Valid() {
				h.InclusionInval++
				r.Invalidations++
				if old.Dirty() {
					dirty = true
				}
			}
		}
		for m := v.ISharers & h.coreBits; m != 0; m &= m - 1 {
			if old := h.L1I[bits.TrailingZeros32(m)].Invalidate(v.Addr); old.Valid() {
				h.InclusionInval++
				r.Invalidations++
			}
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
	h.addSharer(l2ln, core, kind)
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

// AuditMSI verifies the full MSI directory state in both directions
// (audit support): inclusion (every L1 line resident in L2 with its
// sharer bit set), sharer bits pointing only at caches that hold the
// line, bitmasks within the configured core count, and ownership (an
// owning core exists, holds the line modified in its L1D, and no other
// L1D copy is modified). It returns the first violation, or "".
func (h *Hierarchy) AuditMSI() string {
	if bad := h.CheckInclusion(); bad != "" {
		return bad
	}
	if bad := h.CheckSharerBits(); bad != "" {
		return bad
	}
	// L1I residency must likewise be covered by ISharers.
	for c := 0; c < h.cfg.Cores; c++ {
		var bad string
		core := c
		h.L1I[c].ForEachValid(func(ln cache.L1Line) {
			if bad != "" {
				return
			}
			l2ln := h.L2.Lookup(ln.Addr())
			if !l2ln.Valid() || l2ln.ISharers()&(1<<uint(core)) == 0 {
				bad = fmt.Sprintf("L1I[%d] holds %#x without isharer bit", core, uint64(ln.Addr()))
			}
		})
		if bad != "" {
			return bad
		}
	}
	mask := h.coreBits
	var bad string
	h.L2.ForEachValid(func(ln cache.LineRef) {
		if bad != "" {
			return
		}
		switch {
		case ln.Sharers()&^mask != 0:
			bad = fmt.Sprintf("L2 line %#x has sharer bits %#x beyond %d cores", uint64(ln.Addr()), ln.Sharers(), h.cfg.Cores)
		case ln.ISharers()&^mask != 0:
			bad = fmt.Sprintf("L2 line %#x has isharer bits %#x beyond %d cores", uint64(ln.Addr()), ln.ISharers(), h.cfg.Cores)
		case ln.Owner() >= h.cfg.Cores:
			bad = fmt.Sprintf("L2 line %#x has owner %d beyond %d cores", uint64(ln.Addr()), ln.Owner(), h.cfg.Cores)
		}
		if bad != "" {
			return
		}
		dirtyCopies := 0
		for c := 0; c < h.cfg.Cores; c++ {
			dBit := ln.Sharers()&(1<<uint(c)) != 0
			iBit := ln.ISharers()&(1<<uint(c)) != 0
			dln := h.L1D[c].Lookup(ln.Addr())
			if dBit && !dln.Valid() {
				bad = fmt.Sprintf("L2 line %#x has sharer bit for core %d but L1D misses it", uint64(ln.Addr()), c)
				return
			}
			if iBit && !h.L1I[c].Lookup(ln.Addr()).Valid() {
				bad = fmt.Sprintf("L2 line %#x has isharer bit for core %d but L1I misses it", uint64(ln.Addr()), c)
				return
			}
			if dln.Dirty() {
				dirtyCopies++
				if ln.Owner() != c {
					bad = fmt.Sprintf("L1D[%d] holds %#x modified but L2 owner is %d", c, uint64(ln.Addr()), ln.Owner())
					return
				}
			}
		}
		if dirtyCopies > 1 {
			bad = fmt.Sprintf("L2 line %#x has %d modified L1 copies", uint64(ln.Addr()), dirtyCopies)
			return
		}
		if o := ln.Owner(); o >= 0 {
			dln := h.L1D[o].Lookup(ln.Addr())
			if !dln.Dirty() {
				bad = fmt.Sprintf("L2 line %#x owned by core %d whose L1D copy is %s", uint64(ln.Addr()), o,
					map[bool]string{true: "clean", false: "absent"}[dln.Valid()])
			}
		}
	})
	return bad
}

// CheckInclusion verifies that every valid L1 line is present in the L2
// (test support). It returns a description of the first violation, or "".
func (h *Hierarchy) CheckInclusion() string {
	var bad string
	check := func(which string, core int, c *cache.L1) {
		c.ForEachValid(func(ln cache.L1Line) {
			if bad == "" && !h.L2.Lookup(ln.Addr()).Valid() {
				bad = fmt.Sprintf("%s[%d] line %#x not in L2", which, core, uint64(ln.Addr()))
			}
		})
	}
	for c := 0; c < h.cfg.Cores; c++ {
		check("L1I", c, h.L1I[c])
		check("L1D", c, h.L1D[c])
	}
	return bad
}

// CheckSharerBits verifies that L2 sharer bits exactly match L1 contents
// (test support). Returns the first violation, or "".
func (h *Hierarchy) CheckSharerBits() string {
	var bad string
	for c := 0; c < h.cfg.Cores && bad == ""; c++ {
		core := c
		h.L1D[c].ForEachValid(func(ln cache.L1Line) {
			if bad != "" {
				return
			}
			l2ln := h.L2.Lookup(ln.Addr())
			if !l2ln.Valid() || l2ln.Sharers()&(1<<uint(core)) == 0 {
				bad = fmt.Sprintf("L1D[%d] holds %#x without sharer bit", core, uint64(ln.Addr()))
			}
		})
	}
	return bad
}

package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"cmpsim/internal/cache"
)

// opsCores and opsBlocks bound the hierarchy runOps drives: 4 cores
// whose 512-byte 2-way L1s (8 lines each) sit under a 1 KB L2, so 64
// blocks keep every level under replacement pressure and L2 evictions
// keep invalidating L1 copies.
const (
	opsCores  = 4
	opsBlocks = 64
)

// runOps builds a small hierarchy, compressed (4 sets of 8 tags and 32
// segments) or plain (4 sets of 4 ways, 4 victim tags), and applies the
// operations ops decodes, two bytes each: the first picks the kind (mod
// 7) and the core, the second the block (mod opsBlocks). The kinds are
// a load, a store and an instruction fetch through Access; FastHit of
// a load, store or fetch, falling back to Access when it declines, as
// the simulator does; an L1D and an L1I prefetch; and an L2 prefetch.
// The size function hashes a block with the number of stores to it, so
// a dirty L1 victim's writeback resizes its L2 line and can evict
// others.
//
// After every operation runOps checks what the operation promised (a
// demand block resides in its L1, a store leaves the line modified in
// the store's L1D and owned by its core, a prefetch that was not
// redundant leaves its line marked) and that the invalidations it
// reported are the ones the L1s saw. Then it runs the checkers the
// runtime auditor runs: AuditMSI, the L2's CheckInvariants and each
// L1's. It returns the first failure, or "".
func runOps(compressed bool, ops []byte) string {
	stores := map[cache.BlockAddr]uint64{}
	size := func(a cache.BlockAddr) uint8 {
		return uint8(1 + (uint64(a)*2654435761+stores[a]*40503)>>5%cache.MaxSegs)
	}
	var l2 cache.L2
	if compressed {
		l2 = cache.NewCompressedL2(1024, 8, 32)
	} else {
		l2 = cache.NewUncompressedL2(1024, 4, 4)
	}
	h := New(Config{Cores: opsCores, L1Bytes: 512, L1Ways: 2, L2: l2, Size: size})
	l1Invals := func() (n uint64) {
		for c := range h.L1D {
			n += h.L1D[c].Stats.Invals + h.L1I[c].Stats.Invals
		}
		return n
	}
	for i := 0; i+1 < len(ops); i += 2 {
		kind, core := ops[i]%7, int(ops[i]/7)%opsCores
		a := cache.BlockAddr(ops[i+1] % opsBlocks)
		k := Kind(kind) // the demand kinds, 0..2
		if kind == 3 {
			k = Kind(ops[i] / 28 % 3)
		}
		before := l1Invals()
		var op string
		var invals int
		switch kind {
		case 0, 1, 2, 3:
			op = fmt.Sprintf("op %d: core %d %s %#x", i/2, core, k, uint64(a))
			if kind == 3 && h.FastHit(core, k, a) {
				op = fmt.Sprintf("op %d: core %d fast %s %#x", i/2, core, k, uint64(a))
				break
			}
			invals = h.Access(core, k, a).Invalidations
		case 4, 5:
			pk, by := Load, PfL1D
			if kind == 5 {
				pk, by = IFetch, PfL1I
			}
			op = fmt.Sprintf("op %d: core %d %s prefetch %#x", i/2, core, by, uint64(a))
			out := h.PrefetchL1(core, pk, a, by)
			invals = out.Invalidations
			if ln := h.l1For(core, pk).Lookup(a); !out.AlreadyPresent && (!ln.Prefetch() || PfSource(ln.PfBy()) != by) {
				return fmt.Sprintf("%s: the L1 holds %#x, want a line prefetched by %s", op, uint64(ln), by)
			}
		case 6:
			op = fmt.Sprintf("op %d: core %d L2 prefetch %#x", i/2, core, uint64(a))
			out := h.PrefetchL2(core, a, PfL2)
			invals = out.Invalidations
			if ln := h.L2.Lookup(a); !out.AlreadyPresent && (!ln.Prefetch() || PfSource(ln.PfBy()) != PfL2) {
				return fmt.Sprintf("%s: the L2 holds %s, want a line prefetched by L2", op, describe(ln))
			}
		}
		if kind <= 3 {
			if !h.l1For(core, k).Lookup(a).Valid() {
				return fmt.Sprintf("%s: the L1 misses the block afterwards", op)
			}
			if k == Store {
				stores[a]++
				if ln := h.L2.Lookup(a); !h.L1D[core].Lookup(a).Dirty() || ln.Owner() != core {
					return fmt.Sprintf("%s: the L1D copy is not modified, or the L2 line %s is not owned by the core", op, describe(ln))
				}
			}
		}
		if got := l1Invals() - before; got != uint64(invals) {
			return fmt.Sprintf("%s: reported %d invalidations, the L1s saw %d", op, invals, got)
		}
		if total := h.CoherenceInval + h.InclusionInval; total != l1Invals() {
			return fmt.Sprintf("%s: %d coherence and %d inclusion invalidations counted, the L1s saw %d",
				op, h.CoherenceInval, h.InclusionInval, l1Invals())
		}
		if msg := h.AuditMSI(); msg != "" {
			return op + ": " + msg
		}
		if msg := l2.CheckInvariants(); msg != "" {
			return op + ": L2: " + msg
		}
		for c := range h.L1D {
			if msg := h.L1D[c].CheckInvariants(); msg != "" {
				return fmt.Sprintf("%s: L1D[%d]: %s", op, c, msg)
			}
			if msg := h.L1I[c].CheckInvariants(); msg != "" {
				return fmt.Sprintf("%s: L1I[%d]: %s", op, c, msg)
			}
		}
	}
	return ""
}

// FuzzHierarchyOps audits the whole hierarchy after every operation of
// an arbitrary sequence (runOps), over a compressed or a plain L2.
func FuzzHierarchyOps(f *testing.F) {
	// Core 0 prefetches block 5 into the L2, then into its L1D: the L1
	// prefetch must take the L2 line's prefetch bit, or the L2 victim
	// walk would skip the L1 copy.
	f.Add(true, []byte{6, 5, 4, 5})
	f.Add(false, []byte{6, 5, 4, 5})
	// The same through a demand load by core 0; then cores 1 and 2
	// load four more blocks of block 5's plain L2 set, and the last
	// evicts it and must take core 0's copy with it.
	f.Add(false, []byte{6, 5, 0, 5, 7, 9, 7, 13, 14, 17, 14, 21})
	// Core 1 loads block 9, then core 0 stores to it, hitting in the L2:
	// core 1's copy must go.
	f.Add(true, []byte{7, 9, 1, 9})
	// Core 0 stores to block 9 and core 1 loads it (a dirty forward),
	// then core 1 upgrades with a store and core 0 fetches it as an
	// instruction.
	f.Add(true, []byte{1, 9, 7, 9, 8, 9, 2, 9})
	// Fast hits of each kind after the fills they need.
	f.Add(true, []byte{0, 3, 3, 3, 1, 4, 31, 4, 2, 6, 59, 6, 31, 3})
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 1024)
	rng.Read(ops)
	f.Add(true, ops)
	f.Add(false, ops)
	f.Fuzz(func(t *testing.T, compressed bool, ops []byte) {
		if msg := runOps(compressed, ops); msg != "" {
			t.Fatal(msg)
		}
	})
}

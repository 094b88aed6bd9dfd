package coherence

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cmpsim/internal/cache"
)

// newTestHierarchy builds a small hierarchy: 4 cores, 1 KB 2-way L1s,
// 16 KB L2. size controls compressed sizes (nil = incompressible).
func newTestHierarchy(t testing.TB, compressed bool, size SizeFunc) *Hierarchy {
	t.Helper()
	if size == nil {
		size = func(cache.BlockAddr) uint8 { return cache.MaxSegs }
	}
	var l2 cache.L2
	if compressed {
		l2 = cache.NewCompressedL2(16*1024, 8, 32)
	} else {
		l2 = cache.NewUncompressedL2(16*1024, 8, 4)
	}
	return New(Config{
		Cores:   4,
		L1Bytes: 1024,
		L1Ways:  2,
		L2:      l2,
		Size:    size,
	})
}

func TestColdMissGoesToMemory(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	r := h.Access(0, Load, 0x100)
	if r.L1Hit || r.L2Hit || !r.MemFetch {
		t.Fatalf("cold access: %+v", r)
	}
	if r.FetchSegs != cache.MaxSegs {
		t.Fatalf("fetch segs = %d", r.FetchSegs)
	}
}

func TestL1HitAfterFill(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	h.Access(0, Load, 0x100)
	r := h.Access(0, Load, 0x100)
	if !r.L1Hit || r.MemFetch {
		t.Fatalf("second access: %+v", r)
	}
}

func TestL2HitFromAnotherCore(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	h.Access(0, Load, 0x100)
	r := h.Access(1, Load, 0x100)
	if r.L1Hit || !r.L2Hit || r.MemFetch {
		t.Fatalf("cross-core access: %+v", r)
	}
	// Both cores now hold a copy.
	if !h.L1D[0].Lookup(0x100).Valid() || !h.L1D[1].Lookup(0x100).Valid() {
		t.Fatal("both cores' L1Ds should hold the line")
	}
}

func TestStoreUpgradeInvalidatesSharers(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	h.Access(0, Load, 0x100)
	h.Access(1, Load, 0x100)
	h.Access(2, Load, 0x100)
	r := h.Access(0, Store, 0x100)
	if !r.L1Hit || !r.StoreUpgrade {
		t.Fatalf("store upgrade: %+v", r)
	}
	if r.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", r.Invalidations)
	}
	if h.L1D[1].Lookup(0x100).Valid() || h.L1D[2].Lookup(0x100).Valid() {
		t.Fatal("other sharers must be invalidated")
	}
	ln := h.L2.Lookup(0x100)
	if ln.Owner() != 0 {
		t.Fatalf("owner = %d, want 0", ln.Owner())
	}
	if msg := h.AuditMSI(); msg != "" {
		t.Fatal(msg)
	}
}

func TestDirtyForwardOnRemoteLoad(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	h.Access(0, Store, 0x100) // core 0 holds M
	r := h.Access(1, Load, 0x100)
	if !r.L2Hit || !r.DirtyForward {
		t.Fatalf("remote load: %+v", r)
	}
	// Core 0's copy becomes clean; L2 holds the dirty data.
	if ln := h.L1D[0].Lookup(0x100); !ln.Valid() || ln.Dirty() {
		t.Fatal("owner's copy should be clean-shared now")
	}
	l2ln := h.L2.Lookup(0x100)
	if !l2ln.Line().Dirty || l2ln.Owner() != -1 {
		t.Fatalf("L2 line after forward: %s", describe(l2ln))
	}
}

func TestStoreMissInvalidatesRemoteOwner(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	h.Access(0, Store, 0x100)
	r := h.Access(1, Store, 0x100)
	if !r.L2Hit || r.Invalidations != 1 {
		t.Fatalf("remote store: %+v", r)
	}
	if h.L1D[0].Lookup(0x100).Valid() {
		t.Fatal("previous owner must be invalidated")
	}
	if ln := h.L2.Lookup(0x100); ln.Owner() != 1 {
		t.Fatalf("owner = %d, want 1", ln.Owner())
	}
}

func TestDirtyL1VictimWritesBackToL2(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	// 1 KB 2-way L1: 8 sets. Blocks 0x100 and 0x100+8 and +16 map to the
	// same L1 set; two stores then a load evicts the first dirty line.
	h.Access(0, Store, 0x100)
	h.Access(0, Store, 0x108)
	r := h.Access(0, Load, 0x110) // evicts 0x100 (dirty)
	if !r.L1DirtyVictim {
		t.Fatalf("expected dirty L1 victim: %+v", r)
	}
	l2ln := h.L2.Lookup(0x100)
	if !l2ln.Valid() || !l2ln.Line().Dirty {
		t.Fatal("L2 should hold the written-back dirty data")
	}
	if h.L1D[0].Lookup(0x100).Valid() {
		t.Fatal("core 0's L1D still holds the evicted line")
	}
}

func TestInclusionInvalidatesL1OnL2Eviction(t *testing.T) {
	// Tiny L2 to force evictions: 4 KB uncompressed, 8-way = 8 sets.
	l2 := cache.NewUncompressedL2(4*1024, 8, 4)
	h := New(Config{Cores: 2, L1Bytes: 1024, L1Ways: 2, L2: l2,
		Size: func(cache.BlockAddr) uint8 { return cache.MaxSegs }})
	// Fill one L2 set (addresses congruent mod 8) beyond capacity.
	base := cache.BlockAddr(0)
	for i := 0; i < 8; i++ {
		h.Access(0, Load, base+cache.BlockAddr(i*8))
	}
	r := h.Access(0, Load, base+cache.BlockAddr(8*8))
	if !r.MemFetch {
		t.Fatalf("expected miss: %+v", r)
	}
	if msg := h.AuditMSI(); msg != "" {
		t.Fatal(msg)
	}
}

func TestDirtyL2VictimGeneratesWriteback(t *testing.T) {
	l2 := cache.NewUncompressedL2(4*1024, 8, 4)
	h := New(Config{Cores: 1, L1Bytes: 1024, L1Ways: 2, L2: l2,
		Size: func(cache.BlockAddr) uint8 { return cache.MaxSegs }})
	h.Access(0, Store, 0)
	// Evict block 0's dirty line from its own L1 first so the data is in
	// the L2, then push 8 more blocks through the same L2 set.
	wrote := false
	for i := 1; i <= 9; i++ {
		r := h.Access(0, Load, cache.BlockAddr(i*8))
		for _, wb := range r.Writebacks {
			if wb == 0 {
				wrote = true
			}
		}
	}
	if !wrote {
		t.Fatal("dirty L2 victim 0 never written back to memory")
	}
}

func TestPrefetchL1SetsBitsBothLevels(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	out := h.PrefetchL1(0, Load, 0x200, PfL1D)
	if out.AlreadyPresent || !out.MemFetch {
		t.Fatalf("prefetch outcome: %+v", out)
	}
	if ln := h.L1D[0].Lookup(0x200); !ln.Valid() || !ln.Prefetch() || PfSource(ln.PfBy()) != PfL1D {
		t.Fatal("L1 line should be marked prefetched by L1D")
	}
	if ln := h.L2.Lookup(0x200); !ln.Valid() || !ln.Prefetch() {
		t.Fatal("L2 line should be marked prefetched (inclusion fill)")
	}
	// First demand access consumes the bit and reports attribution.
	r := h.Access(0, Load, 0x200)
	if !r.L1Hit || !r.L1PrefetchHit || r.L1PfBy != PfL1D {
		t.Fatalf("demand after prefetch: %+v", r)
	}
}

func TestPrefetchL2OnlyFillsL2(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	out := h.PrefetchL2(0, 0x300, PfL2)
	if !out.MemFetch {
		t.Fatalf("outcome: %+v", out)
	}
	if h.L1D[0].Lookup(0x300).Valid() {
		t.Fatal("L2 prefetch must not fill the L1")
	}
	ln := h.L2.Lookup(0x300)
	if !ln.Valid() || !ln.Prefetch() || PfSource(ln.PfBy()) != PfL2 {
		t.Fatal("L2 line should be marked prefetched by L2")
	}
	r := h.Access(0, Load, 0x300)
	if !r.L2Hit || !r.L2PrefetchHit || r.L2PfBy != PfL2 {
		t.Fatalf("demand after L2 prefetch: %+v", r)
	}
}

func TestRedundantPrefetchReportsPresent(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	h.Access(0, Load, 0x400)
	if out := h.PrefetchL1(0, Load, 0x400, PfL1D); !out.AlreadyPresent {
		t.Fatal("prefetch of resident line should be redundant")
	}
	if out := h.PrefetchL2(0, 0x400, PfL2); !out.AlreadyPresent {
		t.Fatal("L2 prefetch of resident line should be redundant")
	}
}

func TestPrefetchDoesNotStealModifiedLine(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	h.Access(1, Store, 0x500) // core 1 owns M
	out := h.PrefetchL1(0, Load, 0x500, PfL1D)
	if !out.AlreadyPresent {
		t.Fatalf("prefetch should be skipped: %+v", out)
	}
	if ln := h.L1D[1].Lookup(0x500); !ln.Dirty() {
		t.Fatal("owner's modified copy must be untouched")
	}
}

func TestCompressedL2UsesSizeFunc(t *testing.T) {
	size := func(a cache.BlockAddr) uint8 { return 2 }
	h := newTestHierarchy(t, true, size)
	r := h.Access(0, Load, 0x100)
	if !r.MemFetch || r.FetchSegs != 2 {
		t.Fatalf("fetch segs = %d, want 2", r.FetchSegs)
	}
	// Second core's access hits compressed in L2.
	r = h.Access(1, Load, 0x100)
	if !r.L2Hit || !r.L2CompressedHit {
		t.Fatalf("compressed hit: %+v", r)
	}
}

// A plain L2 handed compressed sizes (link compression alone) stores
// every line at MaxSegs, on demand and prefetch fills alike, while the
// fetch still reports the compressed size the link sends; the audit
// hook sees the stored size.
func TestPlainL2StoresFullLines(t *testing.T) {
	h := newTestHierarchy(t, false, func(cache.BlockAddr) uint8 { return 2 })
	noted := map[cache.BlockAddr]uint8{}
	h.OnL2Size = func(a cache.BlockAddr, segs uint8) { noted[a] = segs }
	r := h.Access(0, Load, 0x100)
	l1 := h.PrefetchL1(0, Load, 0x200, PfL1D)
	l2 := h.PrefetchL2(0, 0x300, PfL2)
	if r.FetchSegs != 2 || l1.FetchSegs != 2 || l2.FetchSegs != 2 {
		t.Fatalf("fetch segs %d, %d, %d; want the link's 2", r.FetchSegs, l1.FetchSegs, l2.FetchSegs)
	}
	for _, a := range []cache.BlockAddr{0x100, 0x200, 0x300} {
		if ln := h.L2.Lookup(a); !ln.Valid() || ln.Segs() != cache.MaxSegs || noted[a] != cache.MaxSegs {
			t.Fatalf("line %#x stored as %s, audit noted %d segs", uint64(a), describe(ln), noted[a])
		}
	}
	if r = h.Access(1, Load, 0x100); !r.L2Hit || r.L2CompressedHit {
		t.Fatalf("plain L2 hit: %+v", r)
	}
}

func TestDirtyWritebackResizesCompressedLine(t *testing.T) {
	sizes := map[cache.BlockAddr]uint8{}
	size := func(a cache.BlockAddr) uint8 {
		if s, ok := sizes[a]; ok {
			return s
		}
		return 2
	}
	h := newTestHierarchy(t, true, size)
	h.Access(0, Store, 0x100) // fetched at 2 segs
	sizes[0x100] = 7          // contents changed: now less compressible
	// Evict the dirty line from the L1 (same-set fills).
	h.Access(0, Store, 0x108)
	h.Access(0, Load, 0x110)
	ln := h.L2.Lookup(0x100)
	if !ln.Valid() || ln.Segs() != 7 {
		t.Fatalf("L2 line after writeback: %s", describe(ln))
	}
}

func TestHarmfulPrefetchDetection(t *testing.T) {
	// One-set compressed L2 (4 lines uncompressed); fill it, let a
	// prefetch evict a demand line, then miss on that line again.
	l2 := cache.NewCompressedL2(4*64, 8, 32)
	h := New(Config{Cores: 1, L1Bytes: 1024, L1Ways: 2, L2: l2,
		Size: func(cache.BlockAddr) uint8 { return cache.MaxSegs }})
	for i := 0; i < 4; i++ {
		h.Access(0, Load, cache.BlockAddr(i))
	}
	// Prefetch evicts LRU line 0 (all lines uncompressed: set full).
	h.PrefetchL2(0, 100, PfL2)
	// Demand miss on 0: invalid tag matches, prefetched line in set.
	r := h.Access(0, Load, 0)
	if !r.MemFetch || !r.L2Harmful {
		t.Fatalf("expected harmful-prefetch detection: %+v", r)
	}
}

func TestUselessPrefetchEvictDetection(t *testing.T) {
	l2 := cache.NewCompressedL2(4*64, 8, 32)
	h := New(Config{Cores: 1, L1Bytes: 1024, L1Ways: 2, L2: l2,
		Size: func(cache.BlockAddr) uint8 { return cache.MaxSegs }})
	h.PrefetchL2(0, 100, PfL2)
	// Fill the set with demand lines until the unused prefetch is evicted.
	useless := 0
	for i := 0; i < 8; i++ {
		r := h.Access(0, Load, cache.BlockAddr(i))
		useless += r.L2UselessEvict
	}
	if useless != 1 {
		t.Fatalf("useless evicts = %d, want 1", useless)
	}
}

// TestInvariantsUnderRandomTraffic runs FuzzHierarchyOps' checker
// (runOps) over 3000 random operations per seed.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed int64, compressed bool) bool {
		ops := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(ops)
		if msg := runOps(compressed, ops); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKindAndPfSourceStrings(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || IFetch.String() != "ifetch" {
		t.Fatal("kind strings")
	}
	if PfL1D.String() != "L1D" || PfNone.String() != "none" || PfL2.String() != "L2" || PfL1I.String() != "L1I" {
		t.Fatal("pf source strings")
	}
}

func TestIFetchUsesICache(t *testing.T) {
	h := newTestHierarchy(t, false, nil)
	h.Access(0, IFetch, 0x700)
	if !h.L1I[0].Lookup(0x700).Valid() {
		t.Fatal("ifetch should fill L1I")
	}
	if h.L1D[0].Lookup(0x700).Valid() {
		t.Fatal("ifetch must not fill L1D")
	}
	if msg := h.AuditMSI(); msg != "" {
		t.Fatal(msg)
	}
}

// describe formats an L2 line handle for a failure message.
func describe(ln cache.LineRef) string {
	if !ln.Valid() {
		return "absent"
	}
	return fmt.Sprintf("%+v owned by %d", ln.Line(), ln.Owner())
}

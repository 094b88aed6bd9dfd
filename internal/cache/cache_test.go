package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// The tests below drive the plain (uncompressed) L2: one tag per way,
// every line at MaxSegs, and an optional victim FIFO per set.

func TestNewSetAssocGeometry(t *testing.T) {
	c := NewUncompressedL2(64*1024, 4, 0) // 64 KB 4-way: 256 sets
	if c.Sets() != 256 || c.TagsPerSet() != 4 || c.DataSegsPerSet() != 4*MaxSegs {
		t.Fatalf("got %d sets × %d tags, %d segments", c.Sets(), c.TagsPerSet(), c.DataSegsPerSet())
	}
	if c.CapacityBytes() != 64*1024 {
		t.Fatalf("capacity %d", c.CapacityBytes())
	}
	if c.StoresCompressed() {
		t.Fatal("the uncompressed L2 must not store compressed lines")
	}
}

func TestNewSetAssocRejectsBadGeometry(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero capacity", func() { NewUncompressedL2(0, 4, 0) })
	mustPanic("zero ways", func() { NewUncompressedL2(64*1024, 0, 0) })
	mustPanic("negative ways", func() { NewUncompressedL2(64*1024, -4, 0) })
	mustPanic("non-pow2 sets", func() { NewUncompressedL2(3*64*LineBytes, 4, 0) })
}

// TestL2Footprint pins the shared L2's host storage: 10 bytes a tag
// (a tag word and a 2-byte metadata entry), which every access reads
// and every build clears. The paper's 4 MB compressed L2 has 131,072
// tags; the 4 MB 8-way plain L2 has 65,536. Beside them each set keeps
// a 4-byte segment count, and a plain L2 with victim tags a FIFO of
// them and its 4-byte length. In all, the paper's compressed L2 takes
// 1,376,256 host bytes and the plain L2 with 4 victim tags 983,040.
func TestL2Footprint(t *testing.T) {
	const tagBytes = 10
	if got := unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(tagMeta{}); got != tagBytes {
		t.Fatalf("a tag is %d bytes of storage, want %d", got, tagBytes)
	}
	for _, tc := range []struct {
		name               string
		c                  *Compressed
		sets, vtags, total int
	}{
		{"compressed 4 MB, 8 tags", NewCompressedL2(4<<20, DefaultTagsPerSet, DefaultSegsPerSet), 16384, 0, 1_376_256},
		{"plain 4 MB, 8 ways", NewUncompressedL2(4<<20, 8, 0), 8192, 0, 688_128},
		{"plain 4 MB, 8 ways, 4 victim tags", NewUncompressedL2(4<<20, 8, 4), 8192, 4, 983_040},
	} {
		c := tc.c
		tags := tc.sets * c.tags
		perTag := len(c.blocks)*int(unsafe.Sizeof(c.blocks[0])) + len(c.meta)*int(unsafe.Sizeof(c.meta[0]))
		if perTag != tagBytes*tags {
			t.Errorf("%s: %d bytes of tag storage for %d tags, want %d a tag", tc.name, perTag, tags, tagBytes)
		}
		perSet := len(c.segsUsed)*4 + len(c.victims)*8 + len(c.nvictims)*4
		if want := tc.sets * (4 + tc.vtags*8 + min(tc.vtags, 1)*4); perSet != want {
			t.Errorf("%s: %d bytes of per-set storage, want %d", tc.name, perSet, want)
		}
		if perTag+perSet != tc.total {
			t.Errorf("%s: %d host bytes in all, want %d", tc.name, perTag+perSet, tc.total)
		}
	}
}

// fillPlain fills a into a plain L2 with a deliberately compressed
// size, which the plain L2 must ignore, and returns the one victim (a
// zero Line when nothing was evicted).
func fillPlain(t *testing.T, c *Compressed, a BlockAddr, prefetch bool) Line {
	t.Helper()
	victims, inserted := c.Fill(a, 3, prefetch, nil)
	if inserted.Addr() != a || inserted.Segs() != MaxSegs {
		t.Fatalf("fill %d inserted %+v, want it at %d segments", a, inserted.Line(), MaxSegs)
	}
	if len(victims) > 1 {
		t.Fatalf("fill %d evicted %d lines from a one-tag-per-way set", a, len(victims))
	}
	if len(victims) == 1 {
		return victims[0]
	}
	return Line{}
}

func TestSetAssocHitMiss(t *testing.T) {
	c := NewUncompressedL2(4*LineBytes, 4, 0) // one set, 4 ways
	if _, _, _, ok := c.Access(1); ok {
		t.Fatal("cold access should miss")
	}
	fillPlain(t, c, 1, false)
	if _, _, compressed, ok := c.Access(1); !ok || compressed {
		t.Fatalf("filled block should hit uncompressed: ok=%v compressed=%v", ok, compressed)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 || c.CompressedHits != 0 {
		t.Fatalf("stats %+v, %d compressed hits", c.Stats, c.CompressedHits)
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	c := NewUncompressedL2(4*LineBytes, 4, 0) // one set
	for a := BlockAddr(1); a <= 4; a++ {
		fillPlain(t, c, a, false)
	}
	// Touch 1 so 2 becomes LRU.
	c.Access(1)
	v := fillPlain(t, c, 5, false)
	if v.Addr != 2 || v.Segs != MaxSegs {
		t.Fatalf("expected to evict 2, got %+v", v)
	}
	if !c.Lookup(1).Valid() || !c.Lookup(5).Valid() {
		t.Fatal("1 and 5 should be present")
	}
	// A resize, which only a compressed L2 honours, changes nothing.
	if victims, found := c.Resize(5, 1, nil); !found || len(victims) != 0 || c.Lookup(5).Segs() != MaxSegs {
		t.Fatalf("plain resize: found=%v victims=%v segs=%d", found, victims, c.Lookup(5).Segs())
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestSetAssocDuplicateFillPanics(t *testing.T) {
	c := NewUncompressedL2(4*LineBytes, 4, 0)
	fillPlain(t, c, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate fill should panic")
		}
	}()
	c.Fill(1, MaxSegs, false, nil)
}

func TestPrefetchBitLifecycle(t *testing.T) {
	c := NewUncompressedL2(4*LineBytes, 4, 0)
	fillPlain(t, c, 7, true)
	if ln := c.Lookup(7); !ln.Valid() || !ln.Prefetch() {
		t.Fatal("prefetch bit should be set after prefetch fill")
	}
	_, wasPf, _, ok := c.Access(7)
	if !ok || !wasPf {
		t.Fatal("first access should report prefetch hit")
	}
	if c.Stats.PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d", c.Stats.PrefetchHits)
	}
	_, wasPf, _, _ = c.Access(7)
	if wasPf {
		t.Fatal("second access must not be a prefetch hit")
	}
}

func TestUselessPrefetchCounted(t *testing.T) {
	c := NewUncompressedL2(2*LineBytes, 2, 0) // one set, 2 ways
	fillPlain(t, c, 1, true)                  // prefetched, never used
	fillPlain(t, c, 3, false)
	fillPlain(t, c, 5, false) // evicts LRU = 1 (prefetch bit still set)
	if c.Stats.UselessPf != 1 {
		t.Fatalf("useless prefetches = %d, want 1", c.Stats.UselessPf)
	}
}

func TestVictimTags(t *testing.T) {
	c := NewUncompressedL2(2*LineBytes, 2, 2) // one set, 2 ways, 2 victim tags
	fillPlain(t, c, 2, false)
	fillPlain(t, c, 4, false)
	fillPlain(t, c, 6, false) // evicts 2
	fillPlain(t, c, 8, false) // evicts 4
	if !c.VictimMatch(2) {
		t.Fatal("2 should be in victim tags")
	}
	if c.VictimMatch(2) {
		t.Fatal("victim tag should be consumed after match")
	}
	if !c.VictimMatch(4) {
		t.Fatal("4 should be in victim tags")
	}
	// FIFO overflow: the oldest entry is dropped.
	fillPlain(t, c, 10, false) // evicts 6: FIFO {6}
	fillPlain(t, c, 12, false) // evicts 8: FIFO {6, 8}
	fillPlain(t, c, 14, false) // evicts 10: FIFO {8, 10}, 6 dropped
	if c.VictimMatch(6) {
		t.Fatal("6 should have been dropped from the 2-entry FIFO")
	}
	if !c.VictimMatch(10) {
		t.Fatal("10 should be in victim tags")
	}
}

func TestVictimTagsDisabled(t *testing.T) {
	c := NewUncompressedL2(2*LineBytes, 2, 0)
	fillPlain(t, c, 2, false)
	fillPlain(t, c, 4, false)
	fillPlain(t, c, 6, false)
	if c.VictimMatch(2) {
		t.Fatal("victim tags disabled: match must be false")
	}
}

func TestAnyPrefetchInSet(t *testing.T) {
	c := NewUncompressedL2(4*LineBytes, 4, 0)
	fillPlain(t, c, 1, false)
	if c.AnyPrefetchInSet(1) {
		t.Fatal("no prefetched lines yet")
	}
	fillPlain(t, c, 3, true)
	if !c.AnyPrefetchInSet(1) {
		t.Fatal("prefetched line present")
	}
}

func TestSetIndexingSpreadsSets(t *testing.T) {
	c := NewUncompressedL2(1024*LineBytes, 4, 0) // 256 sets
	// Blocks that differ in set bits must not conflict.
	for a := BlockAddr(0); a < 256; a++ {
		fillPlain(t, c, a, false)
	}
	if got := c.ValidLines(); got != 256 {
		t.Fatalf("valid lines = %d, want 256", got)
	}
	if c.Stats.Evictions != 0 {
		t.Fatal("distinct sets must not evict")
	}
}

func TestForEachValid(t *testing.T) {
	c := NewUncompressedL2(8*LineBytes, 4, 0) // 2 sets
	for _, a := range []BlockAddr{1, 2, 3, 5} {
		fillPlain(t, c, a, false)
	}
	c.Access(1)
	// Set-major, each set most recently used first: set 0 holds 2,
	// set 1 holds 1 (just accessed), 5, 3.
	var got []BlockAddr
	c.ForEachValid(func(ln LineRef) { got = append(got, ln.Addr()) })
	want := []BlockAddr{2, 1, 5, 3}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
}

// Property: a plain L2 never exceeds its way budget per set, evicts
// the true LRU line, and Lookup agrees with the history of fills and
// evictions.
func TestSetAssocModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewUncompressedL2(8*LineBytes, 2, 2) // 4 sets, 2 ways
		model := map[BlockAddr]bool{}
		lru := map[int][]BlockAddr{} // per set, most recently used first
		promote := func(a BlockAddr) {
			s := lru[int(a%4)]
			for i, b := range s {
				if b == a {
					s = append(s[:i], s[i+1:]...)
					break
				}
			}
			lru[int(a%4)] = append([]BlockAddr{a}, s...)
		}
		for op := 0; op < 500; op++ {
			a := BlockAddr(rng.Intn(32))
			switch rng.Intn(3) {
			case 0:
				if !c.Lookup(a).Valid() {
					victims, _ := c.Fill(a, uint8(1+rng.Intn(MaxSegs)), rng.Intn(2) == 0, nil)
					if s := lru[int(a%4)]; len(s) == 2 {
						if len(victims) != 1 || victims[0].Addr != s[1] {
							return false
						}
						delete(model, s[1])
						lru[int(a%4)] = s[:1]
					} else if len(victims) != 0 {
						return false
					}
					model[a] = true
				} else {
					c.Access(a)
				}
				promote(a)
			case 1:
				if _, _, _, ok := c.Access(a); ok {
					promote(a)
				}
			case 2:
				if c.Touch(a).Valid() != model[a] {
					return false
				}
				if model[a] {
					promote(a)
				}
			}
			if c.CheckInvariants() != "" {
				return false
			}
		}
		// Model agreement.
		for a := range model {
			if !c.Lookup(a).Valid() {
				return false
			}
		}
		if c.ValidLines() != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

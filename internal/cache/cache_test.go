package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return len(c.sets) }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// CapacityBytes returns the data capacity.
func (c *SetAssoc) CapacityBytes() int { return len(c.sets) * c.ways * LineBytes }

func TestNewSetAssocGeometry(t *testing.T) {
	c := NewSetAssoc(64*1024, 4, 0) // 64 KB 4-way: 256 sets
	if c.Sets() != 256 || c.Ways() != 4 {
		t.Fatalf("got %d sets × %d ways", c.Sets(), c.Ways())
	}
	if c.CapacityBytes() != 64*1024 {
		t.Fatalf("capacity %d", c.CapacityBytes())
	}
}

func TestNewSetAssocRejectsBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewSetAssoc(0, 4, 0) },
		func() { NewSetAssoc(64*1024, 0, 0) },
		func() { NewSetAssoc(3*LineBytes, 3, 0) }, // 1 set? 3*64/(64*3)=1 ok... use non-pow2
		func() { NewSetAssoc(192*LineBytes, 64, 0) },
	} {
		func() {
			defer func() { recover() }()
			f()
			// Reaching here without panic is only acceptable for geometries
			// that are actually legal; the first two must panic.
		}()
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero capacity", func() { NewSetAssoc(0, 4, 0) })
	mustPanic("zero ways", func() { NewSetAssoc(64*1024, 0, 0) })
	mustPanic("non-pow2 sets", func() { NewSetAssoc(3*64*LineBytes, 4, 0) })
}

// TestLineSize pins Line's packing: a new field that re-pads it grows
// every compressed-L2 tag (131,072 of them in the 4 MB L2).
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Fatalf("cache.Line is %d bytes, want 24", got)
	}
}

func TestSetAssocHitMiss(t *testing.T) {
	c := NewSetAssoc(4*LineBytes, 4, 0) // one set, 4 ways
	if _, _, ok := c.Access(1); ok {
		t.Fatal("cold access should miss")
	}
	c.Fill(1, false)
	if _, _, ok := c.Access(1); !ok {
		t.Fatal("filled block should hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	c := NewSetAssoc(4*LineBytes, 4, 0) // one set
	for a := BlockAddr(1); a <= 4; a++ {
		c.Fill(a, false)
	}
	// Touch 1 so 2 becomes LRU.
	c.Access(1)
	v, _ := c.Fill(5, false)
	if !v.Valid || v.Addr != 2 {
		t.Fatalf("expected to evict 2, got %+v", v)
	}
	if c.Lookup(1) == nil || c.Lookup(5) == nil {
		t.Fatal("1 and 5 should be present")
	}
}

func TestSetAssocDuplicateFillPanics(t *testing.T) {
	c := NewSetAssoc(4*LineBytes, 4, 0)
	c.Fill(1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate fill should panic")
		}
	}()
	c.Fill(1, false)
}

func TestPrefetchBitLifecycle(t *testing.T) {
	c := NewSetAssoc(4*LineBytes, 4, 0)
	c.Fill(7, true)
	if ln := c.Lookup(7); ln == nil || !ln.Prefetch {
		t.Fatal("prefetch bit should be set after prefetch fill")
	}
	_, wasPf, ok := c.Access(7)
	if !ok || !wasPf {
		t.Fatal("first access should report prefetch hit")
	}
	if c.Stats.PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d", c.Stats.PrefetchHits)
	}
	_, wasPf, _ = c.Access(7)
	if wasPf {
		t.Fatal("second access must not be a prefetch hit")
	}
}

func TestUselessPrefetchCounted(t *testing.T) {
	c := NewSetAssoc(2*LineBytes, 2, 0) // one set, 2 ways
	c.Fill(1, true)                     // prefetched, never used
	c.Fill(3, false)
	c.Fill(5, false) // evicts LRU = 1 (prefetch bit still set)
	if c.Stats.UselessPf != 1 {
		t.Fatalf("useless prefetches = %d, want 1", c.Stats.UselessPf)
	}
}

func TestVictimTags(t *testing.T) {
	c := NewSetAssoc(2*LineBytes, 2, 2) // one set, 2 ways, 2 victim tags
	c.Fill(2, false)
	c.Fill(4, false)
	c.Fill(6, false) // evicts 2
	c.Fill(8, false) // evicts 4
	if !c.VictimTagMatch(2) {
		t.Fatal("2 should be in victim tags")
	}
	if c.VictimTagMatch(2) {
		t.Fatal("victim tag should be consumed after match")
	}
	if !c.VictimTagMatch(4) {
		t.Fatal("4 should be in victim tags")
	}
	// FIFO overflow: oldest is dropped.
	c.Fill(10, false) // evicts 6
	c.Fill(12, false) // evicts 8
	c.Fill(14, false) // evicts 10 -> FIFO holds {8,10}? capacity 2: {8,10}... 6 dropped
	if c.VictimTagMatch(6) {
		t.Fatal("6 should have been dropped from the 2-entry FIFO")
	}
	if !c.VictimTagMatch(10) {
		t.Fatal("10 should be in victim tags")
	}
}

func TestVictimTagsDisabled(t *testing.T) {
	c := NewSetAssoc(2*LineBytes, 2, 0)
	c.Fill(2, false)
	c.Fill(4, false)
	c.Fill(6, false)
	if c.VictimTagMatch(2) {
		t.Fatal("victim tags disabled: match must be false")
	}
}

func TestAnyPrefetchInSet(t *testing.T) {
	c := NewSetAssoc(4*LineBytes, 4, 0)
	c.Fill(1, false)
	if c.AnyPrefetchInSet(1) {
		t.Fatal("no prefetched lines yet")
	}
	c.Fill(3, true)
	if !c.AnyPrefetchInSet(1) {
		t.Fatal("prefetched line present")
	}
}

func TestSetIndexingSpreadsSets(t *testing.T) {
	c := NewSetAssoc(1024*LineBytes, 4, 0) // 256 sets
	// Blocks that differ in set bits must not conflict.
	for a := BlockAddr(0); a < 256; a++ {
		c.Fill(a, false)
	}
	if got := c.ValidLines(); got != 256 {
		t.Fatalf("valid lines = %d, want 256", got)
	}
	if c.Stats.Evictions != 0 {
		t.Fatal("distinct sets must not evict")
	}
}

func TestForEachValid(t *testing.T) {
	c := NewSetAssoc(4*LineBytes, 4, 0)
	c.Fill(1, false)
	c.Fill(2, false)
	n := 0
	c.ForEachValid(func(ln *Line) { n++ })
	if n != 2 {
		t.Fatalf("visited %d lines, want 2", n)
	}
}

// Property: a SetAssoc cache never exceeds its way budget per set and
// Lookup agrees with the history of fills and evictions.
func TestSetAssocModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewSetAssoc(8*LineBytes, 2, 2) // 4 sets, 2 ways
		model := map[BlockAddr]bool{}
		for op := 0; op < 500; op++ {
			a := BlockAddr(rng.Intn(32))
			switch rng.Intn(3) {
			case 0:
				if c.Lookup(a) == nil {
					victim, _ := c.Fill(a, rng.Intn(2) == 0)
					if victim.Valid {
						delete(model, victim.Addr)
					}
					model[a] = true
				} else {
					c.Access(a)
				}
			case 1:
				c.Access(a)
			case 2:
				if c.Touch(a) != model[a] {
					return false
				}
			}
		}
		// Model agreement.
		for a := range model {
			if c.Lookup(a) == nil {
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

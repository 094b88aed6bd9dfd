package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Sets returns the number of sets.
func (c *Compressed) Sets() int { return len(c.segsUsed) }

// TagsPerSet returns the number of address tags per set.
func (c *Compressed) TagsPerSet() int { return c.tags }

// DataSegsPerSet returns the data capacity of one set in segments.
func (c *Compressed) DataSegsPerSet() int { return c.dataSegs }

// CapacityBytes returns the physical data capacity.
func (c *Compressed) CapacityBytes() int {
	return c.Sets() * c.dataSegs * SegmentBytes
}

// EffectiveBytes returns the effective cache size: valid lines × 64 B.
// With incompressible data this equals at most CapacityBytes; with
// compressible data it can reach 2× (tags permitting).
func (c *Compressed) EffectiveBytes() int { return c.ValidLines() * LineBytes }

// UsedSegments returns the total data segments currently occupied.
func (c *Compressed) UsedSegments() int {
	n := 0
	for _, u := range c.segsUsed {
		n += int(u)
	}
	return n
}

// VictimTagCount returns the number of invalid tags currently holding
// victim addresses in a's set — the paper's "unused compression tags"
// whose availability limits harmful-prefetch detection (§5.4).
func (c *Compressed) VictimTagCount(a BlockAddr) int {
	tg := c.tagWords(c.setIndex(a))
	n := 0
	for _, t := range tg {
		if t&tagVictim != 0 {
			n++
		}
	}
	return n
}

// oneSet returns a single-set compressed cache with the paper geometry:
// 8 tags, 32 data segments (4 uncompressed lines).
func oneSet() *Compressed {
	return NewCompressedL2(4*LineBytes, 8, 32)
}

func TestNewCompressedGeometry(t *testing.T) {
	// Paper config: 4 MB data, 8 tags, 32 segments/set -> 16384 sets.
	c := NewCompressedL2(4<<20, 8, 32)
	if c.Sets() != 16384 {
		t.Fatalf("sets = %d, want 16384", c.Sets())
	}
	if c.CapacityBytes() != 4<<20 {
		t.Fatalf("capacity = %d", c.CapacityBytes())
	}
	if c.TagsPerSet() != 8 || c.DataSegsPerSet() != 32 {
		t.Fatalf("geometry %d tags %d segs", c.TagsPerSet(), c.DataSegsPerSet())
	}
}

func TestCompressedDoublesCapacityWithCompressibleLines(t *testing.T) {
	c := oneSet()
	// 8 lines of 4 segments each = 32 segments, 8 tags: all fit.
	for a := BlockAddr(0); a < 8; a++ {
		victims, _ := c.Fill(a, 4, false, nil)
		if len(victims) != 0 {
			t.Fatalf("fill %d evicted %v", a, victims)
		}
	}
	if c.ValidLines() != 8 {
		t.Fatalf("valid = %d, want 8", c.ValidLines())
	}
	if c.EffectiveBytes() != 8*LineBytes {
		t.Fatalf("effective = %d", c.EffectiveBytes())
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestCompressedUncompressedLinesGiveFourWay(t *testing.T) {
	c := oneSet()
	for a := BlockAddr(0); a < 4; a++ {
		if v, _ := c.Fill(a, MaxSegs, false, nil); len(v) != 0 {
			t.Fatalf("fill %d evicted %v", a, v)
		}
	}
	// Fifth uncompressed line must evict exactly one (the LRU, addr 0).
	victims, _ := c.Fill(4, MaxSegs, false, nil)
	if len(victims) != 1 || victims[0].Addr != 0 {
		t.Fatalf("victims = %+v, want [line 0]", victims)
	}
}

func TestCompressedEvictsMultipleForBigFill(t *testing.T) {
	c := oneSet()
	// Fill with 8 × 4-segment lines (set full: 32/32 segments).
	for a := BlockAddr(0); a < 8; a++ {
		c.Fill(a, 4, false, nil)
	}
	// An uncompressed (8-seg) fill needs two 4-seg victims.
	victims, _ := c.Fill(100, MaxSegs, false, nil)
	if len(victims) != 2 {
		t.Fatalf("got %d victims, want 2", len(victims))
	}
	if victims[0].Addr != 0 || victims[1].Addr != 1 {
		t.Fatalf("victims %+v, want LRU order 0 then 1", victims)
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestTagLimitEvenWithSpace(t *testing.T) {
	c := oneSet()
	// 8 one-segment lines: 8 segments used, but all 8 tags consumed.
	for a := BlockAddr(0); a < 8; a++ {
		c.Fill(a, 1, false, nil)
	}
	victims, _ := c.Fill(9, 1, false, nil)
	if len(victims) != 1 || victims[0].Addr != 0 {
		t.Fatalf("tag-limited fill: victims %+v", victims)
	}
}

func TestInvalidTagsRecordVictims(t *testing.T) {
	c := oneSet()
	for a := BlockAddr(0); a < 4; a++ {
		c.Fill(a, MaxSegs, false, nil)
	}
	c.Fill(4, MaxSegs, false, nil) // evicts 0
	if !c.VictimMatch(0) {
		t.Fatal("evicted address 0 should match an invalid tag")
	}
	if c.VictimMatch(0) {
		t.Fatal("invalid-tag match must be consumed")
	}
	if c.VictimMatch(77) {
		t.Fatal("never-seen address must not match")
	}
}

func TestCompressedHitStats(t *testing.T) {
	c := oneSet()
	c.Fill(1, 3, false, nil)
	c.Fill(2, MaxSegs, false, nil)
	if _, _, compressed, ok := c.Access(1); !ok || !compressed {
		t.Fatal("line 1 should hit compressed")
	}
	if _, _, compressed, ok := c.Access(2); !ok || compressed {
		t.Fatal("line 2 should hit uncompressed")
	}
	if c.CompressedHits != 1 {
		t.Fatalf("compressed hits = %d", c.CompressedHits)
	}
}

func TestResizeShrink(t *testing.T) {
	c := oneSet()
	c.Fill(1, MaxSegs, false, nil)
	victims, found := c.Resize(1, 2, nil)
	if !found || len(victims) != 0 {
		t.Fatalf("shrink: found=%v victims=%v", found, victims)
	}
	if ln := c.Lookup(1); ln.Segs() != 2 {
		t.Fatalf("segs = %d, want 2", ln.Segs())
	}
}

func TestResizeGrowEvicts(t *testing.T) {
	c := oneSet()
	for a := BlockAddr(0); a < 8; a++ {
		c.Fill(a, 4, false, nil) // full: 32 segments
	}
	// Grow line 7 from 4 to 8 segments: need 4 more, evict LRU (0).
	victims, found := c.Resize(7, MaxSegs, nil)
	if !found {
		t.Fatal("line 7 should be present")
	}
	if len(victims) != 1 || victims[0].Addr != 0 {
		t.Fatalf("victims = %+v", victims)
	}
	if ln := c.Lookup(7); !ln.Valid() || ln.Segs() != MaxSegs {
		t.Fatal("line 7 should now be uncompressed")
	}
	if c.ExpansionEvicts != 1 {
		t.Fatalf("expansion evicts = %d", c.ExpansionEvicts)
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestResizeGrowNeverEvictsSelf(t *testing.T) {
	c := NewCompressedL2(4*LineBytes, 8, 32)
	c.Fill(5, 1, false, nil)
	victims, found := c.Resize(5, MaxSegs, nil)
	if !found || len(victims) != 0 {
		t.Fatalf("lone line grow: found=%v victims=%v", found, victims)
	}
	if !c.Lookup(5).Valid() {
		t.Fatal("line 5 must survive its own resize")
	}
}

func TestResizeAbsent(t *testing.T) {
	c := oneSet()
	if _, found := c.Resize(42, 4, nil); found {
		t.Fatal("resize of absent line should report not found")
	}
}

func TestCompressedLRUOrderAcrossAccess(t *testing.T) {
	c := oneSet()
	for a := BlockAddr(0); a < 4; a++ {
		c.Fill(a, MaxSegs, false, nil)
	}
	c.Access(0) // 0 becomes MRU; LRU is 1
	victims, _ := c.Fill(9, MaxSegs, false, nil)
	if len(victims) != 1 || victims[0].Addr != 1 {
		t.Fatalf("victims = %+v, want [1]", victims)
	}
}

func TestCompressedPrefetchBit(t *testing.T) {
	c := oneSet()
	c.Fill(2, 4, true, nil)
	_, wasPf, _, ok := c.Access(2)
	if !ok || !wasPf {
		t.Fatal("first access to prefetched line should report prefetch hit")
	}
	if c.Stats.PrefetchHits != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestCompressedRejectsBadSegs(t *testing.T) {
	c := oneSet()
	for _, segs := range []uint8{0, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fill segs=%d should panic", segs)
				}
			}()
			c.Fill(BlockAddr(segs)+50, segs, false, nil)
		}()
	}
}

// TestCompressedFillRejectsWideAddress pins the tag word's 58-bit
// address field: a wider block is refused by Fill instead of aliasing
// another line, and misses every lookup, also a victim match whose high
// bits coincide with the victim bit.
func TestCompressedFillRejectsWideAddress(t *testing.T) {
	for _, a := range []BlockAddr{1 << 58, ^BlockAddr(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fill(%#x) did not panic", uint64(a))
				}
			}()
			oneSet().Fill(a, 4, false, nil)
		}()
	}
	c := oneSet()
	_, ln := c.Fill(maxAddr, 3, true, nil)
	ln.SetPfBy(3)
	ln.MarkDirty()
	if got := c.Lookup(maxAddr).Line(); got != (Line{Addr: maxAddr, Dirty: true, Prefetch: true, PfBy: 3, Segs: 3}) {
		t.Fatalf("largest address stored as %+v", got)
	}
	for a := BlockAddr(0); a < 4; a++ {
		c.Fill(a, MaxSegs, false, nil) // the fourth evicts maxAddr
	}
	wide := BlockAddr(tagVictim) | maxAddr
	if c.Lookup(wide).Valid() || c.Touch(wide).Valid() || c.VictimMatch(wide) {
		t.Fatal("wide address aliased a stored line or victim tag")
	}
	if !c.VictimMatch(maxAddr) {
		t.Fatal("the evicted largest address left no victim tag")
	}
}

func TestCompressedCheckInvariantsCatchesCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(c *Compressed){
		"invalid tag with line-state bits": func(c *Compressed) { c.blocks[7] = tagDirty },
		"victim tag with line-state bits":  func(c *Compressed) { c.blocks[7] = 9 | tagVictim | tagPrefetch },
		"invalid tag with an owner":        func(c *Compressed) { c.meta[7].owner = 1 },
		"valid word with the victim bit":   func(c *Compressed) { c.blocks[0] |= tagVictim },
		"zero segments":                    func(c *Compressed) { c.meta[0].segs = 0 },
		"segment counter":                  func(c *Compressed) { c.segsUsed[0]++ },
		"valid-line counter":               func(c *Compressed) { c.valid++ },
		"duplicate tag":                    func(c *Compressed) { c.InjectDuplicateTag() },
	} {
		c := oneSet()
		c.Fill(1, 3, true, nil)
		c.Fill(2, 5, false, nil)
		if msg := c.CheckInvariants(); msg != "" {
			t.Fatalf("%s: clean cache reported %q", name, msg)
		}
		corrupt(c)
		if c.CheckInvariants() == "" {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestEffectiveSizeTracksCompressibility(t *testing.T) {
	// 64 KB compressed cache; fill a working set of 2-segment lines twice
	// the uncompressed capacity and verify effective size exceeds physical.
	c := NewCompressedL2(64*1024, 8, 32)
	lines := 2 * 64 * 1024 / LineBytes
	var buf []Line
	for a := 0; a < lines; a++ {
		buf = buf[:0]
		if !c.Lookup(BlockAddr(a)).Valid() {
			c.Fill(BlockAddr(a), 2, false, buf)
		}
	}
	if eff := c.EffectiveBytes(); eff <= 64*1024 {
		t.Fatalf("effective %d should exceed physical 65536", eff)
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// Property: invariants hold under arbitrary fill/access/resize/
// victim-match sequences, and the segment budget is never exceeded.
func TestCompressedInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCompressedL2(8*LineBytes, 8, 32) // 2 sets
		var buf []Line
		for op := 0; op < 800; op++ {
			a := BlockAddr(rng.Intn(24))
			segs := uint8(1 + rng.Intn(MaxSegs))
			switch rng.Intn(4) {
			case 0:
				if !c.Lookup(a).Valid() {
					buf = buf[:0]
					c.Fill(a, segs, rng.Intn(2) == 0, buf)
				}
			case 1:
				c.Access(a)
			case 2:
				buf = buf[:0]
				c.Resize(a, segs, buf)
			case 3:
				c.VictimMatch(a)
			}
			if msg := c.CheckInvariants(); msg != "" {
				t.Logf("seed %d op %d: %s", seed, op, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCompressedFillAccess times a random demand access, and a
// fill on a miss, over a span of four times the cache's uncompressed
// line capacity, on a 1 MB L2 (host-cache resident) and on the paper's
// 4 MB one. Each starts timing after twice the span's operations of
// warm-up, when every set is full.
func BenchmarkCompressedFillAccess(b *testing.B) {
	for _, mb := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			c := NewCompressedL2(mb<<20, DefaultTagsPerSet, DefaultSegsPerSet)
			span := 4 * (mb << 20) / LineBytes
			rng := rand.New(rand.NewSource(1))
			var buf []Line
			step := func() {
				a := BlockAddr(rng.Intn(span))
				if _, _, _, ok := c.Access(a); !ok {
					buf, _ = c.Fill(a, uint8(1+rng.Intn(MaxSegs)), false, buf[:0])
				}
			}
			for i := 0; i < 2*span; i++ {
				step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestNewL1RejectsBadGeometry(t *testing.T) {
	for name, f := range map[string]func(){
		"zero capacity": func() { NewL1(0, 4) },
		"zero ways":     func() { NewL1(64*1024, 0) },
		"non-pow2 sets": func() { NewL1(3*64*LineBytes, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
	if c := NewL1(64*1024, 4); len(c.ways) != 1024 || c.setMask != 255 {
		t.Fatalf("64 KB 4-way: %d ways, set mask %#x", len(c.ways), uint64(c.setMask))
	}
}

func TestInvalidate(t *testing.T) {
	c := NewL1(4*LineBytes, 4)
	c.Fill(9, false, true, 0)
	ln := c.Invalidate(9)
	if !ln.Valid() || !ln.Dirty() || ln.Addr() != 9 {
		t.Fatalf("invalidate returned %#x", uint64(ln))
	}
	if c.Lookup(9).Valid() {
		t.Fatal("9 still present after invalidate")
	}
	if got := c.Invalidate(9); got.Valid() {
		t.Fatal("second invalidate should report absent")
	}
	if c.Stats.Invals != 1 {
		t.Fatalf("invalidations = %d, want 1", c.Stats.Invals)
	}
}

// TestL1FastHit pins the fast path's contract: it takes exactly the
// plain hits (no prefetch bit; a store finds the line dirty), leaves
// the cache untouched otherwise, and accounts a hit as Access does.
func TestL1FastHit(t *testing.T) {
	c := NewL1(4*LineBytes, 4) // one set
	c.Fill(1, false, false, 0)
	c.Fill(2, false, true, 0)
	c.Fill(3, true, false, 2)
	before := c.Stats
	for _, tc := range []struct {
		a     BlockAddr
		store bool
	}{{1, true}, {3, false}, {3, true}, {4, false}} {
		if c.FastHit(tc.a, tc.store) {
			t.Fatalf("FastHit(%d, store=%v) took a hit that needs Access", tc.a, tc.store)
		}
	}
	if c.Stats != before {
		t.Fatalf("failed fast hits changed stats: %+v -> %+v", before, c.Stats)
	}
	// Set order is MRU first: 3, 2, 1. A load fast-hits 1 and a store
	// fast-hits dirty 2; each moves to the front like an Access hit.
	if !c.FastHit(1, false) || !c.FastHit(2, true) {
		t.Fatal("plain hits must take the fast path")
	}
	want := []BlockAddr{2, 1, 3}
	for i, w := range c.ways[:3] {
		if w.Addr() != want[i] {
			t.Fatalf("way %d holds %d after fast hits, want %d", i, w.Addr(), want[i])
		}
	}
	if c.Stats.Accesses != before.Accesses+2 || c.Stats.Hits != before.Hits+2 {
		t.Fatalf("fast hits accounted %+v from %+v", c.Stats, before)
	}
}

// TestL1FillRejectsWideAddress: a block address must fit the packed
// way's 58 address bits and PfBy its 2 bits; anything else is refused
// loudly instead of aliasing another line.
func TestL1FillRejectsWideAddress(t *testing.T) {
	for _, tc := range []struct {
		a  BlockAddr
		by uint8
	}{{1 << 58, 0}, {^BlockAddr(0), 0}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fill(%#x, by %d) did not panic", uint64(tc.a), tc.by)
				}
			}()
			NewL1(4*LineBytes, 4).Fill(tc.a, false, false, tc.by)
		}()
	}
	c := NewL1(4*LineBytes, 4)
	c.Fill(maxAddr, true, true, 3)
	if ln := c.Lookup(maxAddr); ln.Addr() != maxAddr || !ln.Dirty() || !ln.Prefetch() || ln.PfBy() != 3 {
		t.Fatalf("largest address stored as %#x", uint64(ln))
	}
	// A wide address whose high bits coincide with the flag bits must
	// not match the line below it.
	if c.Lookup(maxAddr|BlockAddr(l1Dirty)).Valid() || c.FastHit(maxAddr|BlockAddr(l1Dirty), true) {
		t.Fatal("wide address aliased a stored line")
	}
}

func TestL1CheckInvariantsCatchesCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(c *L1){
		"invalid way with bits": func(c *L1) { c.ways[3] = l1Dirty },
		"stray bit":             func(c *L1) { c.ways[0] |= 1 << 60 },
		"wrong set":             func(c *L1) { c.ways[0] = L1Line(1) | l1Valid },
		"duplicate tag":         func(c *L1) { c.ways[1] = c.ways[0] | l1Dirty },
	} {
		c := NewL1(8*LineBytes, 4) // two sets
		c.Fill(2, false, false, 0)
		c.Fill(4, false, false, 0)
		if msg := c.CheckInvariants(); msg != "" {
			t.Fatalf("%s: clean cache reported %q", name, msg)
		}
		corrupt(c)
		if c.CheckInvariants() == "" {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// l1Model is the reference FuzzL1SetOps compares L1 against: per set, a
// plain list of lines, most recently used first.
type l1Model struct {
	sets  [][]l1Ref
	stats Stats
}

type l1Ref struct {
	addr            BlockAddr
	dirty, prefetch bool
	pfBy            uint8
}

func (m *l1Model) find(a BlockAddr) (set int, i int) {
	set = int(a) % len(m.sets)
	for i, r := range m.sets[set] {
		if r.addr == a {
			return set, i
		}
	}
	return set, -1
}

// front moves entry i of set si to the MRU position.
func (m *l1Model) front(si, i int) {
	s := m.sets[si]
	r := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = r
}

// same reports whether the packed way w holds exactly r.
func same(w L1Line, r l1Ref) bool {
	return w.Valid() && w.Addr() == r.addr && w.Dirty() == r.dirty && w.Prefetch() == r.prefetch && w.PfBy() == r.pfBy
}

// FuzzL1SetOps drives an L1 (2 sets × 4 ways at first) and l1Model
// through fill, access, fast-hit, invalidate, lookup and set-dirty
// operations and checks after every step that both return the same
// answers, hold the same lines in the same LRU order and count the same
// statistics, and that CheckInvariants holds. Each op is two bytes:
// the low three bits of the first pick the op, the rest are its flags;
// the second is the address, offset past 2^58 when its top bit is set
// (those must never hit, and Fill must refuse them).
//
// An op byte with its top bit and all three op bits set (0x87 under
// mask) rebuilds the L1 in its own storage (RecycleL1) with 1, 2, 4 or
// 8 sets (bits 3-4) of 1 to 4 ways (bits 5-6). The result must reuse
// the tag array when it is large enough and equal a fresh build: every
// way empty, every lookup a miss, the statistics zero. The ops that
// follow drive it against an empty model of the new geometry.
func FuzzL1SetOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x01, 0x01})
	f.Add([]byte{0x08, 0x02, 0x00, 0x04, 0x00, 0x06, 0x00, 0x08, 0x00, 0x0a, 0x03, 0x02, 0x12, 0x04})
	f.Add([]byte{0x30, 0x03, 0x02, 0x03, 0x1a, 0x03, 0x05, 0x03, 0x03, 0x03, 0x00, 0x83})
	// Rebuilds after fills: to 8 sets × 4 ways (larger), then 1 set × 2
	// ways (smaller), then back to 2 sets × 4 ways, each followed by
	// fills that overflow a set and a hit.
	f.Add([]byte{0x00, 0x00, 0x08, 0x02, 0x00, 0x04,
		0xff, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x10, 0x00, 0x18, 0x00, 0x20, 0x02, 0x08,
		0xa7, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x02, 0x02,
		0xef, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x04, 0x00, 0x06, 0x00, 0x08, 0x02, 0x08})
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 4; k++ {
		ops := make([]byte, 512)
		rng.Read(ops)
		for i := 1; i < len(ops); i += 2 {
			ops[i] &= 0x8f // mostly small addresses, so sets fill and evict
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		ways := 4
		c := NewL1(2*ways*LineBytes, ways)
		m := &l1Model{sets: make([][]l1Ref, 2)}
		for i := 0; i+1 < len(ops); i += 2 {
			b := ops[i]
			if b&0x87 == 0x87 {
				nsets := 1 << (b >> 3 & 3)
				ways = 1 + int(b>>5&3)
				op := fmt.Sprintf("rebuild %d sets x %d ways", nsets, ways)
				old, arr := c, c.ways
				if c = RecycleL1(c, nsets*ways*LineBytes, ways); c != old {
					t.Fatalf("%s built a new L1 instead of reusing its storage", op)
				}
				if cap(arr) >= len(c.ways) && &arr[:1][0] != &c.ways[0] {
					t.Fatalf("%s allocated a tag array its old one could hold", op)
				}
				fresh := NewL1(nsets*ways*LineBytes, ways)
				if !slices.Equal(c.ways, fresh.ways) || c.nways != fresh.nways || c.setMask != fresh.setMask || c.Stats != fresh.Stats {
					t.Fatalf("%s differs from a fresh build: %+v vs %+v", op, *c, *fresh)
				}
				for a := BlockAddr(0); a < 0x80; a++ {
					if c.Lookup(a).Valid() {
						t.Fatalf("%s: block %#x still present", op, uint64(a))
					}
				}
				m = &l1Model{sets: make([][]l1Ref, nsets)}
				continue
			}
			a := BlockAddr(ops[i+1] & 0x7f)
			if ops[i+1]&0x80 != 0 {
				a |= 1 << 58
			}
			flag1, flag2, by := b&0x08 != 0, b&0x10 != 0, b>>5&3
			si, j := m.find(a)
			var op string
			switch b & 7 {
			case 0, 1: // fill
				op = fmt.Sprintf("fill %#x pf=%v dirty=%v by=%d", uint64(a), flag1, flag2, by)
				if a > maxAddr {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("%s did not panic", op)
							}
						}()
						c.Fill(a, flag1, flag2, by)
					}()
					break
				}
				if j >= 0 {
					continue // duplicate fills are a caller bug by contract
				}
				got := c.Fill(a, flag1, flag2, by)
				m.stats.Fills++
				s := m.sets[si]
				if len(s) == ways {
					v := s[ways-1]
					if !same(got, v) {
						t.Fatalf("%s evicted %#x, model evicts %+v", op, uint64(got), v)
					}
					m.stats.Evictions++
					if v.dirty {
						m.stats.DirtyEvicts++
					}
					if v.prefetch {
						m.stats.UselessPf++
					}
					s = s[:ways-1]
				} else if got != 0 {
					t.Fatalf("%s evicted %#x from a set with room", op, uint64(got))
				}
				m.sets[si] = append([]l1Ref{{a, flag2, flag1, by}}, s...)
			case 2: // access
				op = fmt.Sprintf("access %#x", uint64(a))
				ln, wasPf, ok := c.Access(a)
				m.stats.Accesses++
				if ok != (j >= 0) {
					t.Fatalf("%s hit=%v, model presence %v", op, ok, j >= 0)
				}
				if !ok {
					m.stats.Misses++
					break
				}
				r := &m.sets[si][j]
				if wasPf != r.prefetch {
					t.Fatalf("%s wasPrefetch=%v, model %v", op, wasPf, r.prefetch)
				}
				if r.prefetch {
					r.prefetch = false
					m.stats.PrefetchHits++
				}
				if !same(ln, *r) {
					t.Fatalf("%s returned %#x, model %+v", op, uint64(ln), *r)
				}
				m.stats.Hits++
				m.front(si, j)
			case 3: // fast hit
				op = fmt.Sprintf("fast hit %#x store=%v", uint64(a), flag1)
				want := j >= 0 && !m.sets[si][j].prefetch && (!flag1 || m.sets[si][j].dirty)
				if got := c.FastHit(a, flag1); got != want {
					t.Fatalf("%s = %v, model %v", op, got, want)
				}
				if want {
					m.stats.Accesses++
					m.stats.Hits++
					m.front(si, j)
				}
			case 4: // invalidate
				op = fmt.Sprintf("invalidate %#x", uint64(a))
				got := c.Invalidate(a)
				if j < 0 {
					if got != 0 {
						t.Fatalf("%s of an absent line returned %#x", op, uint64(got))
					}
					break
				}
				if !same(got, m.sets[si][j]) {
					t.Fatalf("%s returned %#x, model %+v", op, uint64(got), m.sets[si][j])
				}
				m.stats.Invals++
				m.sets[si] = append(m.sets[si][:j], m.sets[si][j+1:]...)
			case 5, 6: // lookup
				op = fmt.Sprintf("lookup %#x", uint64(a))
				got := c.Lookup(a)
				if j < 0 && got != 0 || j >= 0 && !same(got, m.sets[si][j]) {
					t.Fatalf("%s = %#x, model presence %v", op, uint64(got), j >= 0)
				}
			case 7: // set dirty
				op = fmt.Sprintf("set dirty %#x %v", uint64(a), flag1)
				c.SetDirty(a, flag1)
				if j >= 0 {
					m.sets[si][j].dirty = flag1
				}
			}
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("after %s: %s", op, msg)
			}
			if c.Stats != m.stats {
				t.Fatalf("after %s: stats %+v, model %+v", op, c.Stats, m.stats)
			}
			for s, refs := range m.sets {
				k := 0
				for _, w := range c.ways[s*ways : (s+1)*ways] {
					if !w.Valid() {
						continue
					}
					if k == len(refs) || !same(w, refs[k]) {
						t.Fatalf("after %s: set %d diverges from the model at line %d (%#x)", op, s, k, uint64(w))
					}
					k++
				}
				if k != len(refs) {
					t.Fatalf("after %s: set %d holds %d lines, model %d", op, s, k, len(refs))
				}
			}
		}
	})
}

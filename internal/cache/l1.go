package cache

import "fmt"

// L1Line is one packed private-L1 way: the block address in the low 58
// bits, the 2-bit PfBy above it, then the prefetch, dirty and valid
// bits. An invalid way is the zero word, so a lookup key (an address
// with the valid bit) can never match one. A 64-bit byte address has
// a 58-bit block address, so the bound costs no simulated address.
type L1Line uint64

const (
	l1PfByShift = addrBits
	l1Prefetch  = L1Line(1) << 61
	l1Dirty     = L1Line(1) << 62
	l1Valid     = L1Line(1) << 63
	// l1Match selects the bits a tag match compares.
	l1Match = l1Valid | L1Line(maxAddr)
	// l1Bits selects every bit a way may carry.
	l1Bits = l1Match | 3<<l1PfByShift | l1Prefetch | l1Dirty
)

// Addr returns the block address of the way.
func (w L1Line) Addr() BlockAddr { return BlockAddr(w) & maxAddr }

// Valid reports whether the way holds a line.
func (w L1Line) Valid() bool { return w&l1Valid != 0 }

// Dirty reports whether the line is modified (MSI M state; clean is S).
func (w L1Line) Dirty() bool { return w&l1Dirty != 0 }

// Prefetch reports whether a prefetched line is still unreferenced
// (paper §3).
func (w L1Line) Prefetch() bool { return w&l1Prefetch != 0 }

// PfBy returns the prefetcher that brought the line (0 none; see
// coherence.PfSource).
func (w L1Line) PfBy() uint8 { return uint8(w >> l1PfByShift & 3) }

// L1 is a private first-level cache: set-associative, write-back, true
// LRU. It holds nothing but its tag array: one packed L1Line per way,
// each set's ways contiguous and ordered most recently used first, so
// every operation reads and rotates one run of words (32 bytes per set
// at 4 ways). It keeps no victim history.
type L1 struct {
	ways    []L1Line // nsets*nways; set si is ways[si*nways : (si+1)*nways]
	nways   int
	setMask BlockAddr
	Stats   Stats
}

// NewL1 builds an L1 of totalBytes capacity with the given
// associativity and 64-byte lines. totalBytes must give a power-of-two
// set count.
func NewL1(totalBytes, ways int) *L1 { return RecycleL1(nil, totalBytes, ways) }

// RecycleL1 builds NewL1's cache in old's storage: old's tag array is
// reused when it is large enough and every way is reset to empty, so
// the two behave identically. old is an L1 of any geometry that
// nothing uses any more; nil builds fresh.
func RecycleL1(old *L1, totalBytes, ways int) *L1 {
	if totalBytes <= 0 || ways <= 0 {
		panic("cache: capacity and ways must be positive")
	}
	nsets := totalBytes / (LineBytes * ways)
	checkPow2(nsets, "L1 set count")
	c := old
	if c == nil {
		c = new(L1)
	}
	*c = L1{ways: recycled(c.ways, nsets*ways), nways: ways, setMask: BlockAddr(nsets - 1)}
	return c
}

// set returns the ways of a's set.
func (c *L1) set(a BlockAddr) []L1Line {
	lo := int(a&c.setMask) * c.nways
	return c.ways[lo : lo+c.nways : lo+c.nways]
}

// find returns the index of the way holding a in set, or -1.
func find(set []L1Line, a BlockAddr) int {
	if a > maxAddr {
		return -1 // Fill refuses such addresses
	}
	key := L1Line(a) | l1Valid
	for i, w := range set {
		if w&l1Match == key {
			return i
		}
	}
	return -1
}

// Lookup returns the way holding a (zero, not Valid, when absent),
// without updating LRU order or statistics.
func (c *L1) Lookup(a BlockAddr) L1Line {
	set := c.set(a)
	if i := find(set, a); i >= 0 {
		return set[i]
	}
	return 0
}

// Access performs a demand lookup: on a hit the line moves to the MRU
// position and is returned with ok=true; on a miss ok is false. A hit
// to a line whose prefetch bit is set counts as a prefetch hit and
// clears the bit (the adaptive prefetcher's "useful prefetch" event,
// reported as wasPrefetch).
func (c *L1) Access(a BlockAddr) (ln L1Line, wasPrefetch, ok bool) {
	c.Stats.Accesses++
	set := c.set(a)
	i := find(set, a)
	if i < 0 {
		c.Stats.Misses++
		return 0, false, false
	}
	ln = set[i]
	if wasPrefetch = ln.Prefetch(); wasPrefetch {
		ln &^= l1Prefetch
		c.Stats.PrefetchHits++
	}
	promote(set, i, ln)
	c.Stats.Hits++
	return ln, wasPrefetch, true
}

// FastHit handles the plain-hit case of a demand access in one step:
// the line is valid, its prefetch bit is clear, and a store finds it
// already dirty. On success the hit is accounted (stats and LRU
// promotion) exactly as Access would have; on failure nothing is
// mutated and the caller must run Access.
func (c *L1) FastHit(a BlockAddr, store bool) bool {
	if a > maxAddr {
		return false
	}
	mask, want := l1Match|l1Prefetch, L1Line(a)|l1Valid
	if store {
		mask, want = mask|l1Dirty, want|l1Dirty
	}
	set := c.set(a)
	for i, w := range set {
		if w&mask == want {
			c.Stats.Accesses++
			c.Stats.Hits++
			promote(set, i, w)
			return true
		}
	}
	return false
}

// Fill inserts a at the MRU position, evicting the LRU line if the set
// is full, and returns the victim (zero when nothing was evicted). The
// new line carries the prefetch and dirty bits and by as its PfBy. A
// duplicate fill, an address at or above 2^58 or a by above 3 is a
// caller bug and panics.
func (c *L1) Fill(a BlockAddr, prefetch, dirty bool, by uint8) (victim L1Line) {
	if a > maxAddr || by > 3 {
		panic(fmt.Sprintf("cache: L1 fill of block %#x by %d does not fit a packed way", uint64(a), by))
	}
	set := c.set(a)
	if find(set, a) >= 0 {
		panic(fmt.Sprintf("cache: duplicate fill of block %#x", uint64(a)))
	}
	c.Stats.Fills++
	// Prefer an invalid way; otherwise evict the true LRU (last way).
	vi := len(set) - 1
	for i := vi; i >= 0; i-- {
		if set[i] == 0 {
			vi = i
			break
		}
	}
	if victim = set[vi]; victim != 0 {
		c.Stats.Evictions++
		if victim.Dirty() {
			c.Stats.DirtyEvicts++
		}
		if victim.Prefetch() {
			c.Stats.UselessPf++
		}
	}
	w := L1Line(a) | l1Valid | L1Line(by)<<l1PfByShift
	if prefetch {
		w |= l1Prefetch
	}
	if dirty {
		w |= l1Dirty
	}
	promote(set, vi, w)
	return victim
}

// SetDirty sets or clears the dirty bit of a's line, if present,
// without LRU or statistics side effects.
func (c *L1) SetDirty(a BlockAddr, dirty bool) {
	set := c.set(a)
	if i := find(set, a); i >= 0 {
		if dirty {
			set[i] |= l1Dirty
		} else {
			set[i] &^= l1Dirty
		}
	}
}

// Invalidate removes a from the cache and returns its way as it was
// (zero, not Valid, when absent).
func (c *L1) Invalidate(a BlockAddr) L1Line {
	set := c.set(a)
	i := find(set, a)
	if i < 0 {
		return 0
	}
	old := set[i]
	set[i] = 0
	c.Stats.Invals++
	return old
}

// ForEachValid calls fn for every valid way. Mutating the cache inside
// fn is not allowed.
func (c *L1) ForEachValid(fn func(L1Line)) {
	for _, w := range c.ways {
		if w.Valid() {
			fn(w)
		}
	}
}

// CheckInvariants validates the packed ways (audit support): an
// invalid way is exactly zero, a valid way carries no bit outside the
// layout and maps to the set that holds it, and no set holds an
// address twice. It returns a description of the first violation, or
// "".
func (c *L1) CheckInvariants() string {
	for lo := 0; lo < len(c.ways); lo += c.nways {
		si := lo / c.nways
		set := c.ways[lo : lo+c.nways]
		for i, w := range set {
			switch {
			case !w.Valid():
				if w != 0 {
					return fmt.Sprintf("set %d way %d: invalid way carries bits %#x", si, i, uint64(w))
				}
				continue
			case w&^l1Bits != 0:
				return fmt.Sprintf("set %d way %d: word %#x has bits outside the packed layout", si, i, uint64(w))
			case int(w.Addr()&c.setMask) != si:
				return fmt.Sprintf("set %d: line %#x maps to set %d", si, uint64(w.Addr()), w.Addr()&c.setMask)
			}
			for _, o := range set[:i] {
				if o.Valid() && o.Addr() == w.Addr() {
					return fmt.Sprintf("set %d: duplicate tag %#x", si, uint64(w.Addr()))
				}
			}
		}
	}
	return ""
}

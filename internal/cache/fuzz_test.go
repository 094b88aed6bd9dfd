package cache

import (
	"fmt"
	"slices"
	"testing"
)

// l2Geom is a shared-L2 geometry FuzzCompressedSetOps builds: sets of
// 256 bytes of data each, compressed (8 tags, 32 segments) or plain
// (4 ways) with fifo victim tags per set.
type l2Geom struct {
	plain      bool
	sets, fifo int
}

// build builds g in old's storage (nil allocates).
func (g l2Geom) build(old L2) L2 {
	if g.plain {
		return RecycleUncompressedL2(old, g.sets*4*LineBytes, 4, g.fifo)
	}
	return RecycleCompressedL2(old, g.sets*4*LineBytes, 8, 32)
}

// buildRef builds g as the reference L2, in old's storage.
func (g l2Geom) buildRef(old *refL2) *refL2 {
	if g.plain {
		return recycleRefUncompressedL2(old, g.sets*4*LineBytes, 4, g.fifo)
	}
	return recycleRefCompressedL2(old, g.sets*4*LineBytes, 8, 32)
}

// rebuildGeom decodes a rebuild op's geometry from its op byte b: bit 0
// plain, bit 1 two sets instead of one, bits 2-4 (mod 5) the plain
// L2's victim FIFO depth, 0 for none.
func rebuildGeom(b byte) l2Geom {
	g := l2Geom{plain: b&1 != 0, sets: 1 << (b >> 1 & 1)}
	if g.plain {
		g.fifo = int(b>>2&7) % 5
	}
	return g
}

// sameL2 describes the first difference between two L2s' state, every
// field and every array element; arrays compare by length and
// contents, not capacity. It returns "" when they are the same.
func sameL2(got, want *Compressed) string {
	switch {
	case !slices.Equal(got.blocks, want.blocks):
		return "tag words differ"
	case !slices.Equal(got.meta, want.meta):
		return "metadata entries differ"
	case !slices.Equal(got.segsUsed, want.segsUsed):
		return "segment counts differ"
	case !slices.Equal(got.victims, want.victims) || !slices.Equal(got.nvictims, want.nvictims):
		return "victim FIFOs differ"
	case got.vtags != want.vtags || got.valid != want.valid || got.tags != want.tags ||
		got.dataSegs != want.dataSegs || got.plain != want.plain || got.setMask != want.setMask:
		return fmt.Sprintf("geometry or counters differ: %+v vs %+v", *got, *want)
	case got.Stats != want.Stats || got.CompressedHits != want.CompressedHits || got.ExpansionEvicts != want.ExpansionEvicts:
		return "statistics differ"
	}
	return ""
}

// refView is what the reference L2 says of one valid line, in
// Compressed's terms.
func refView(ln *refLine) (Line, int) {
	return Line{Addr: ln.Addr, Dirty: ln.Dirty, Prefetch: ln.Prefetch, PfBy: ln.PfBy, Segs: ln.Segs}, ln.Owner()
}

// sameLine describes how the line behind r differs from the reference
// line ref, or returns "" when they agree on every field.
func sameLine(r LineRef, ref *refLine) string {
	switch {
	case r.Valid() != (ref != nil):
		return fmt.Sprintf("handle valid %v, reference line %+v", r.Valid(), ref)
	case ref == nil:
		return ""
	case !ref.Valid:
		return fmt.Sprintf("reference returned an invalid line %+v", *ref)
	}
	want, wantOwner := refView(ref)
	if got := r.Line(); got != want || r.Owner() != wantOwner {
		return fmt.Sprintf("line %+v owned by %d, reference %+v owned by %d", got, r.Owner(), want, wantOwner)
	}
	return ""
}

// sameVictims describes the first difference between the victims an
// operation returned and the reference's, in order, or returns "".
func sameVictims(got []Line, want []refLine) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d victims %+v, reference %d %+v", len(got), got, len(want), want)
	}
	for i := range want {
		if w, _ := refView(&want[i]); !want[i].Valid || got[i] != w {
			return fmt.Sprintf("victim %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	return ""
}

// sameAsRef describes the first difference between c and the reference
// ref as their callers see them: statistics, the valid lines in
// ForEachValid's order with every field, each set's victim history in
// tag order and AnyPrefetchInSet. It returns "" when they agree.
func sameAsRef(c *Compressed, ref *refL2) string {
	if msg := ref.CheckInvariants(); msg != "" {
		return "reference: " + msg
	}
	if c.Stats != ref.Stats || c.CompressedHits != ref.CompressedHits || c.ExpansionEvicts != ref.ExpansionEvicts {
		return fmt.Sprintf("statistics %+v %d %d, reference %+v %d %d", c.Stats, c.CompressedHits, c.ExpansionEvicts,
			ref.Stats, ref.CompressedHits, ref.ExpansionEvicts)
	}
	if c.ValidLines() != ref.ValidLines() {
		return fmt.Sprintf("%d valid lines, reference %d", c.ValidLines(), ref.ValidLines())
	}
	var got, want []string
	c.ForEachValid(func(r LineRef) { got = append(got, fmt.Sprintf("%+v/%d", r.Line(), r.Owner())) })
	ref.ForEachValid(func(ln *refLine) {
		l, o := refView(ln)
		want = append(want, fmt.Sprintf("%+v/%d", l, o))
	})
	if !slices.Equal(got, want) {
		return fmt.Sprintf("ForEachValid visits %v, reference %v", got, want)
	}
	for si := range c.segsUsed {
		tg := c.tagWords(si)
		set, _ := ref.set(si)
		for i := range set {
			rv := !set[i].Valid && set[i].VictimTag
			if gv := tg[i]&tagVictim != 0; gv != rv || gv && BlockAddr(tg[i])&maxAddr != set[i].Addr {
				return fmt.Sprintf("set %d tag %d: word %#x, reference %+v", si, i, tg[i], set[i])
			}
		}
		if c.vtags > 0 && !slices.Equal(c.victimFIFO(si), ref.victimFIFO(si)) {
			return fmt.Sprintf("set %d victim FIFO %v, reference %v", si, c.victimFIFO(si), ref.victimFIFO(si))
		}
		a := BlockAddr(si)
		if c.AnyPrefetchInSet(a) != ref.AnyPrefetchInSet(a) {
			return fmt.Sprintf("set %d: AnyPrefetchInSet %v, reference %v", si, c.AnyPrefetchInSet(a), ref.AnyPrefetchInSet(a))
		}
	}
	return ""
}

// FuzzCompressedSetOps drives arbitrary fill/resize/access/touch/
// victim-match sequences against the shared L2 and against refL2, the
// Line-array L2 with its tag mirror that Compressed replaced (in
// ref_l2_test.go), and cross-checks every step against both and against
// a brute-force shadow (a plain address → segments map with no LRU,
// packing or tag machinery). mode picks the first L2: 0 (mod 4) is the
// compressed L2 with 8 tags and 32 segments; 1..3 the plain L2 with 4
// ways and a 2-, 3- or 4-entry victim FIFO, where every fill stores
// MaxSegs and a resize changes nothing. Either way it has one set of
// 256 bytes, so every address collides and packing or replacement
// pressure is maximal.
//
// Every operation must answer as the reference does: hit or miss, the
// returned line's every field, the victims in order, a victim match.
// A fill records a PfBy in the new line, and a touch that hits writes
// the line's owner and dirty bit and may clear its prefetch bit,
// through the handle on one side and the Line on the other. After
// each operation the two must agree on the statistics, the valid lines
// in ForEachValid's order (set by set, most recently used first, so in
// both modes the LRU order), each set's victim history in tag order and
// FIFO, and AnyPrefetchInSet; the shadow must agree on membership in
// both directions, per-line stored size and total segment usage; and
// CheckInvariants() must hold on both, which is the same sweep the
// runtime auditor runs.
//
// Without a victim FIFO VictimTagCount must drop by one exactly when a
// victim match hits. In a plain L2 the shadow also keeps each set's LRU
// order and victim FIFO: every fill must evict exactly the shadow's LRU
// line when the set is full and nothing otherwise, each set's order and
// FIFO must equal the shadow's after every step, and every victim match
// must agree with (and consume from) the shadow FIFO.
//
// An op whose address byte is 0xF0 or above rebuilds both L2s in their
// own storage (RecycleCompressedL2, RecycleUncompressedL2) with the
// geometry rebuildGeom decodes from the op byte: one or two sets,
// compressed or plain, with or without a victim FIFO. The result must
// reuse the storage where it is large enough and equal a fresh build of
// that geometry field for field: nothing valid, every lookup and
// victim match a miss, every statistic zero. The ops that follow drive
// it against an empty shadow.
func FuzzCompressedSetOps(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 0x01})
	f.Add(uint8(0), []byte{0x04, 0x01, 0x3c, 0x02, 0x1c, 0x03, 0x08, 0x01})
	f.Add(uint8(0), []byte{0x3c, 0x00, 0x3d, 0x01, 0x3e, 0x02, 0x3f, 0x03, 0x01, 0x00})
	// Plain, 2-entry FIFO: six fills overflow the 4 ways twice, then
	// victim matches hit the FIFO, miss a consumed entry, and an access
	// and a resize touch a resident line.
	f.Add(uint8(1), []byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04,
		0x00, 0x05, 0x04, 0x00, 0x04, 0x00, 0x04, 0x01, 0x02, 0x05, 0x01, 0x05})
	// Plain, 4-entry FIFO: refills of a matched victim.
	f.Add(uint8(3), []byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x02, 0x00,
		0x00, 0x04, 0x04, 0x01, 0x00, 0x01, 0x00, 0x05, 0x04, 0x02})
	// One seed per rebuild transition, each after ops that leave valid
	// lines, victim tags or FIFO entries behind for the rebuild to clear.
	// Compressed -> plain with a 4-entry FIFO, which then records a
	// victim.
	f.Add(uint8(0), []byte{0x05, 0x00, 0x0a, 0x01, 0x0f, 0x02, 0x14, 0x03, 0x19, 0x04, 0x1e, 0x05,
		0x11, 0xf0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x04, 0x00})
	// Plain with a FIFO -> compressed, whose fills then pack and evict.
	f.Add(uint8(2), []byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04,
		0x00, 0xf5, 0x05, 0x00, 0x0a, 0x01, 0x23, 0x02, 0x23, 0x03, 0x23, 0x04, 0x23, 0x05, 0x04, 0x00})
	// Plain with a FIFO -> plain without one (victim matches must miss).
	f.Add(uint8(3), []byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04,
		0x01, 0xf0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x04, 0x00})
	// Plain without a FIFO -> plain with a 2-entry FIFO.
	f.Add(uint8(1), []byte{0x01, 0xf0, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03,
		0x00, 0x04, 0x09, 0xf1, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x04, 0x00})
	// Compressed, one set -> two sets (larger) -> one set (smaller).
	f.Add(uint8(0), []byte{0x05, 0x00, 0x0a, 0x01, 0x02, 0xf0, 0x05, 0x00, 0x0a, 0x01, 0x0f, 0x02,
		0x14, 0x03, 0x00, 0xf2, 0x05, 0x04, 0x04, 0x00})
	// Plain, one set -> two sets with a 3-entry FIFO -> one set.
	f.Add(uint8(1), []byte{0x00, 0x00, 0x00, 0x01, 0x0f, 0xf0, 0x00, 0x00, 0x00, 0x02, 0x00, 0x04,
		0x00, 0x06, 0x00, 0x08, 0x00, 0x0a, 0x04, 0x00, 0x0d, 0xf3, 0x00, 0x01, 0x04, 0x01})
	// Metadata through the handle. Compressed: four fills (the last a
	// prefetch), a touch of the LRU line that writes its owner and dirty
	// bit, an access, a touch that clears the prefetch bit, then
	// uncompressed fills and a resize that evict the written lines.
	f.Add(uint8(0), []byte{0x0f, 0x01, 0x0f, 0x02, 0x0f, 0x03, 0x82, 0x04, 0x44, 0x01, 0x02, 0x03,
		0x85, 0x04, 0x02, 0x01, 0x23, 0x05, 0x23, 0x06, 0x23, 0x07, 0x24, 0x01, 0x23, 0x08, 0x04, 0x02})
	// Plain with a 3-entry FIFO: the same writes, then fills that evict
	// both written lines.
	f.Add(uint8(2), []byte{0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x44, 0x01, 0x85, 0x02,
		0x02, 0x03, 0x00, 0x05, 0x00, 0x06, 0x00, 0x07, 0x04, 0x01})
	f.Fuzz(func(t *testing.T, mode uint8, ops []byte) {
		g := l2Geom{plain: mode%4 != 0, sets: 1}
		if g.plain {
			g.fifo = int(mode%4) + 1
		}
		c, ref := g.build(nil), g.buildRef(nil)
		var shadow map[BlockAddr]uint8
		var lru, fifo [][]BlockAddr // per set, plain L2: MRU first; oldest first
		empty := func() {
			shadow = map[BlockAddr]uint8{}
			lru, fifo = make([][]BlockAddr, g.sets), make([][]BlockAddr, g.sets)
		}
		empty()
		var vbuf []Line
		var rbuf []refLine
		setOf := func(a BlockAddr) int { return int(a) % g.sets }

		promote := func(a BlockAddr) {
			l := lru[setOf(a)]
			if i := slices.Index(l, a); i >= 0 {
				l = slices.Delete(l, i, i+1)
			}
			lru[setOf(a)] = slices.Insert(l, 0, a)
		}
		evict := func(victims []Line, op string) {
			for _, v := range victims {
				if shadow[v.Addr] != v.Segs {
					t.Fatalf("%s evicted %#x at %d segs, shadow holds %d",
						op, uint64(v.Addr), v.Segs, shadow[v.Addr])
				}
				delete(shadow, v.Addr)
				if g.plain {
					si := setOf(v.Addr)
					if n := len(lru[si]); n == 0 || lru[si][n-1] != v.Addr {
						t.Fatalf("%s evicted %#x, shadow LRU order %v", op, uint64(v.Addr), lru[si])
					}
					lru[si] = lru[si][:len(lru[si])-1]
					if g.fifo == 0 {
						continue
					}
					if len(fifo[si]) == g.fifo {
						fifo[si] = fifo[si][1:]
					}
					fifo[si] = append(fifo[si], v.Addr)
				}
			}
		}
		check := func(op string) {
			t.Helper()
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("after %s: %s", op, msg)
			}
			if msg := sameAsRef(c, ref); msg != "" {
				t.Fatalf("after %s: %s", op, msg)
			}
			if got, want := c.ValidLines(), len(shadow); got != want {
				t.Fatalf("after %s: %d valid lines, shadow holds %d", op, got, want)
			}
			total := 0
			for a, segs := range shadow {
				ln := c.Lookup(a)
				if !ln.Valid() {
					t.Fatalf("after %s: shadow line %#x missing from cache", op, uint64(a))
				}
				if ln.Segs() != segs {
					t.Fatalf("after %s: line %#x stored at %d segs, shadow says %d",
						op, uint64(a), ln.Segs(), segs)
				}
				total += int(segs)
			}
			if got := c.UsedSegments(); got != total {
				t.Fatalf("after %s: %d segments used, shadow sums to %d", op, got, total)
			}
			if !g.plain {
				return
			}
			for si := 0; si < g.sets; si++ {
				tg := c.tagWords(si)
				for j, w := range tg {
					valid, a := w&tagValid != 0, BlockAddr(w)&maxAddr
					if (j < len(lru[si])) != valid || valid && a != lru[si][j] {
						t.Fatalf("after %s: set %d tag %d holds %#x, shadow LRU order %v", op, si, j, w, lru[si])
					}
				}
				if g.fifo > 0 && !slices.Equal(c.victimFIFO(si), fifo[si]) {
					t.Fatalf("after %s: set %d victim FIFO %v, shadow %v", op, si, c.victimFIFO(si), fifo[si])
				}
			}
		}
		rebuild := func(b byte) string {
			g = rebuildGeom(b)
			op := fmt.Sprintf("rebuild %+v", g)
			old, blocks := c, c.blocks
			if c = g.build(c); c != old {
				t.Fatalf("%s built a new L2 instead of reusing its storage", op)
			}
			if cap(blocks) >= len(c.blocks) && &blocks[:1][0] != &c.blocks[0] {
				t.Fatalf("%s allocated a tag array its old one could hold", op)
			}
			if msg := sameL2(c, g.build(nil)); msg != "" {
				t.Fatalf("%s differs from a fresh build: %s", op, msg)
			}
			ref = g.buildRef(ref)
			for a := BlockAddr(0); a < 16; a++ {
				if c.Lookup(a).Valid() || c.VictimMatch(a) || ref.VictimMatch(a) {
					t.Fatalf("%s: block %#x still present or recorded as a victim", op, uint64(a))
				}
			}
			empty()
			return op
		}

		for i := 0; i+1 < len(ops); i += 2 {
			if ops[i+1] >= 0xf0 {
				check(rebuild(ops[i]))
				continue
			}
			kind := ops[i] % 5
			segs := 1 + (ops[i]/5)%MaxSegs
			addr := BlockAddr(ops[i+1] % 16)
			_, present := shadow[addr]
			var op string
			switch kind {
			case 0: // fill
				if present {
					continue // duplicate fills are a caller bug by contract
				}
				op = fmt.Sprintf("fill %#x @%d", uint64(addr), segs)
				prefetch := ops[i]&0x80 != 0
				victims, inserted := c.Fill(addr, segs, prefetch, vbuf[:0])
				rvictims, rinserted := ref.Fill(addr, segs, prefetch, rbuf[:0])
				vbuf, rbuf = victims, rvictims
				inserted.SetPfBy(segs & 3)
				rinserted.PfBy = segs & 3
				if msg := sameVictims(victims, rvictims); msg != "" {
					t.Fatalf("%s: %s", op, msg)
				}
				if msg := sameLine(inserted, rinserted); msg != "" {
					t.Fatalf("%s inserted: %s", op, msg)
				}
				stored := segs
				if g.plain {
					stored = MaxSegs
					want := 0 // a one-tag-per-way set evicts only when full
					if len(lru[setOf(addr)]) == 4 {
						want = 1
					}
					if len(victims) != want {
						t.Fatalf("%s into a set of %d lines evicted %d", op, len(lru[setOf(addr)]), len(victims))
					}
				}
				evict(victims, op)
				shadow[addr] = stored
				if g.plain {
					promote(addr)
				}
				if inserted.Addr() != addr || inserted.Segs() != stored {
					t.Fatalf("%s inserted %+v", op, inserted.Line())
				}
			case 1: // resize
				op = fmt.Sprintf("resize %#x @%d", uint64(addr), segs)
				victims, found := c.Resize(addr, segs, vbuf[:0])
				rvictims, rfound := ref.Resize(addr, segs, rbuf[:0])
				vbuf, rbuf = victims, rvictims
				if found != present || rfound != present {
					t.Fatalf("%s found=%v, reference %v, shadow presence %v", op, found, rfound, present)
				}
				if msg := sameVictims(victims, rvictims); msg != "" {
					t.Fatalf("%s: %s", op, msg)
				}
				if g.plain && len(victims) != 0 {
					t.Fatalf("%s in a plain L2 evicted %d lines", op, len(victims))
				}
				evict(victims, op)
				if found && !g.plain {
					shadow[addr] = segs
				}
			case 3: // touch, then metadata writes through the handle
				op = fmt.Sprintf("touch %#x", uint64(addr))
				ln, rln := c.Touch(addr), ref.Lookup(addr)
				if ref.Touch(addr) {
					rln = ref.Lookup(addr)
				}
				if ln.Valid() != present {
					t.Fatalf("%s hit=%v, shadow presence %v", op, ln.Valid(), present)
				}
				if msg := sameLine(ln, rln); msg != "" {
					t.Fatalf("%s: %s", op, msg)
				}
				if !present {
					break
				}
				b := ops[i]
				ln.SetOwner(int(b%7) - 1)
				rln.SetOwner(int(b%7) - 1)
				if b&0x40 != 0 {
					ln.MarkDirty()
					rln.Dirty = true
				}
				if b&0x80 != 0 {
					ln.ClearPrefetch()
					rln.Prefetch = false
				}
				if g.plain {
					promote(addr)
				}
			case 4: // victim match
				op = fmt.Sprintf("victim match %#x", uint64(addr))
				if g.fifo > 0 {
					si := setOf(addr)
					j := slices.Index(fifo[si], addr)
					got, want := c.VictimMatch(addr), ref.VictimMatch(addr)
					if got != (j >= 0) || want != got {
						t.Fatalf("%s = %v, reference %v, shadow FIFO %v", op, got, want, fifo[si])
					}
					if j >= 0 {
						fifo[si] = slices.Delete(fifo[si], j, j+1)
					}
					break
				}
				before := c.VictimTagCount(addr)
				got, want := c.VictimMatch(addr), ref.VictimMatch(addr)
				if got != want {
					t.Fatalf("%s = %v, reference %v", op, got, want)
				}
				drop := 0
				if want {
					drop = 1
				}
				if after := c.VictimTagCount(addr); after != before-drop {
					t.Fatalf("%s: victim tags %d -> %d, want a drop of %d", op, before, after, drop)
				}
			default: // demand access (kind 2)
				op = fmt.Sprintf("access %#x", uint64(addr))
				ln, wasPf, compressed, ok := c.Access(addr)
				rln, rwasPf, rcompressed, rok := ref.Access(addr)
				if ok != present || rok != ok || wasPf != rwasPf || compressed != rcompressed {
					t.Fatalf("%s = hit %v pf %v compressed %v, reference %v %v %v, shadow presence %v",
						op, ok, wasPf, compressed, rok, rwasPf, rcompressed, present)
				}
				if msg := sameLine(ln, rln); msg != "" {
					t.Fatalf("%s: %s", op, msg)
				}
				if ok {
					if ln.Addr() != addr || ln.Segs() != shadow[addr] {
						t.Fatalf("%s returned %+v, shadow holds %d segs", op, ln.Line(), shadow[addr])
					}
					if compressed != (ln.Segs() < MaxSegs) {
						t.Fatalf("%s compressed=%v at %d segs", op, compressed, ln.Segs())
					}
					if g.plain {
						promote(addr)
					}
				}
			}
			check(op)
		}
	})
}

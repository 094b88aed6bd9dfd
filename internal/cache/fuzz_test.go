package cache

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzCompressedSetOps drives arbitrary fill/resize/access/victim-match
// sequences against one set of the shared L2 and cross-checks every
// step against a brute-force shadow set (a plain address → segments map
// with no LRU, packing or tag machinery). mode picks the L2: 0 (mod 4)
// is the compressed L2 with 8 tags and 32 segments; 1..3 the plain L2
// with 4 ways and a 2-, 3- or 4-entry victim FIFO, where every fill
// stores MaxSegs and a resize changes nothing. After each operation the
// two must agree on membership in both directions, per-line stored
// size, total segment usage — and CheckInvariants() must hold, which is
// the same sweep the runtime auditor runs.
//
// In compressed mode a victim match must agree with a scan of the set's
// Line structs, and VictimTagCount must drop by one exactly when it
// matches. In plain mode the shadow also keeps the set's LRU order and
// victim FIFO: every fill must evict exactly the shadow's LRU line when
// the set is full and nothing otherwise, the set's tag order and FIFO
// must equal the shadow's after every step, and every victim match must
// agree with (and consume from) the shadow FIFO.
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
	f.Fuzz(func(t *testing.T, mode uint8, ops []byte) {
		// Either way the L2 is 256 B of data in exactly one set, so every
		// address collides and packing or replacement pressure is maximal.
		plain, fifoCap := mode%4 != 0, int(mode%4)+1
		c := NewCompressedL2(256, 8, 32)
		if plain {
			c = NewUncompressedL2(256, 4, fifoCap)
		}
		shadow := map[BlockAddr]uint8{}
		var lru, fifo []BlockAddr // plain mode: MRU first; oldest first
		var vbuf []Line

		promote := func(a BlockAddr) {
			if i := slices.Index(lru, a); i >= 0 {
				lru = slices.Delete(lru, i, i+1)
			}
			lru = slices.Insert(lru, 0, a)
		}
		evict := func(victims []Line, op string) {
			for _, v := range victims {
				if !v.Valid {
					t.Fatalf("%s returned an invalid victim %+v", op, v)
				}
				if shadow[v.Addr] != v.Segs {
					t.Fatalf("%s evicted %#x at %d segs, shadow holds %d",
						op, uint64(v.Addr), v.Segs, shadow[v.Addr])
				}
				delete(shadow, v.Addr)
				if plain {
					if n := len(lru); n == 0 || lru[n-1] != v.Addr {
						t.Fatalf("%s evicted %#x, shadow LRU order %v", op, uint64(v.Addr), lru)
					}
					lru = lru[:len(lru)-1]
					if len(fifo) == fifoCap {
						fifo = fifo[1:]
					}
					fifo = append(fifo, v.Addr)
				}
			}
		}
		check := func(op string) {
			t.Helper()
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("after %s: %s", op, msg)
			}
			if got, want := c.ValidLines(), len(shadow); got != want {
				t.Fatalf("after %s: %d valid lines, shadow holds %d", op, got, want)
			}
			total := 0
			for a, segs := range shadow {
				ln := c.Lookup(a)
				if ln == nil {
					t.Fatalf("after %s: shadow line %#x missing from cache", op, uint64(a))
				}
				if ln.Segs != segs {
					t.Fatalf("after %s: line %#x stored at %d segs, shadow says %d",
						op, uint64(a), ln.Segs, segs)
				}
				total += int(segs)
			}
			if got := c.UsedSegments(); got != total {
				t.Fatalf("after %s: %d segments used, shadow sums to %d", op, got, total)
			}
			if !plain {
				return
			}
			for j, ln := range c.lines {
				if (j < len(lru)) != ln.Valid || ln.Valid && ln.Addr != lru[j] {
					t.Fatalf("after %s: tag %d holds %+v, shadow LRU order %v", op, j, ln, lru)
				}
			}
			if !slices.Equal(c.victimFIFO[0], fifo) {
				t.Fatalf("after %s: victim FIFO %v, shadow %v", op, c.victimFIFO[0], fifo)
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
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
				victims, inserted := c.Fill(addr, segs, ops[i]&0x80 != 0, vbuf[:0])
				stored := segs
				if plain {
					stored = MaxSegs
					want := 0 // a one-tag-per-way set evicts only when full
					if len(lru) == 4 {
						want = 1
					}
					if len(victims) != want {
						t.Fatalf("%s into a set of %d lines evicted %d", op, len(lru), len(victims))
					}
				}
				evict(victims, op)
				shadow[addr] = stored
				if plain {
					promote(addr)
				}
				if inserted == nil || inserted.Addr != addr || inserted.Segs != stored {
					t.Fatalf("%s inserted %+v", op, inserted)
				}
			case 1: // resize
				op = fmt.Sprintf("resize %#x @%d", uint64(addr), segs)
				victims, found := c.Resize(addr, segs, vbuf[:0])
				if found != present {
					t.Fatalf("%s found=%v, shadow presence %v", op, found, present)
				}
				if plain && len(victims) != 0 {
					t.Fatalf("%s in a plain L2 evicted %d lines", op, len(victims))
				}
				evict(victims, op)
				if found && !plain {
					shadow[addr] = segs
				}
			case 4: // victim match
				op = fmt.Sprintf("victim match %#x", uint64(addr))
				if plain {
					j := slices.Index(fifo, addr)
					if got := c.VictimMatch(addr); got != (j >= 0) {
						t.Fatalf("%s = %v, shadow FIFO %v", op, got, fifo)
					}
					if j >= 0 {
						fifo = slices.Delete(fifo, j, j+1)
					}
					break
				}
				want := false
				for j := len(c.lines) - 1; j >= 0; j-- {
					if ln := c.lines[j]; !ln.Valid && ln.VictimTag && ln.Addr == addr {
						want = true
						break
					}
				}
				before := c.VictimTagCount(addr)
				if got := c.VictimMatch(addr); got != want {
					t.Fatalf("%s = %v, Line scan says %v", op, got, want)
				}
				drop := 0
				if want {
					drop = 1
				}
				if after := c.VictimTagCount(addr); after != before-drop {
					t.Fatalf("%s: victim tags %d -> %d, want a drop of %d", op, before, after, drop)
				}
			default: // demand access (kinds 2 and 3)
				op = fmt.Sprintf("access %#x", uint64(addr))
				ln, _, compressed, ok := c.Access(addr)
				if ok != present {
					t.Fatalf("%s hit=%v, shadow presence %v", op, ok, present)
				}
				if ok {
					if ln.Addr != addr || ln.Segs != shadow[addr] {
						t.Fatalf("%s returned %+v, shadow holds %d segs", op, ln, shadow[addr])
					}
					if compressed != (ln.Segs < MaxSegs) {
						t.Fatalf("%s compressed=%v at %d segs", op, compressed, ln.Segs)
					}
					if plain {
						promote(addr)
					}
				}
			}
			check(op)
		}
	})
}

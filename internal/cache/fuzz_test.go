package cache

import (
	"fmt"
	"testing"
)

// FuzzCompressedSetOps drives arbitrary fill/resize/access/victim-match
// sequences against one set of the decoupled
// variable-segment cache and cross-checks every step against a
// brute-force shadow set (a plain address → segments map with no LRU,
// packing or tag machinery). After each operation the two must agree on
// membership in both directions, per-line stored size, total segment
// usage — and CheckInvariants() must hold, which is the same sweep the
// runtime auditor runs. A victim match must agree with a scan of the
// set's Line structs, and VictimTagCount must drop by one exactly when
// it matches.
func FuzzCompressedSetOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x04, 0x01, 0x3c, 0x02, 0x1c, 0x03, 0x08, 0x01})
	f.Add([]byte{0x3c, 0x00, 0x3d, 0x01, 0x3e, 0x02, 0x3f, 0x03, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// 256 B data / 32 segments per set = exactly one 8-tag set, so
		// every address collides and packing pressure is maximal.
		c := NewCompressed(256, 8, 32)
		shadow := map[BlockAddr]uint8{}
		var vbuf []Line

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
				evict(victims, op)
				shadow[addr] = segs
				if inserted == nil || inserted.Addr != addr || inserted.Segs != segs {
					t.Fatalf("%s inserted %+v", op, inserted)
				}
			case 1: // resize
				op = fmt.Sprintf("resize %#x @%d", uint64(addr), segs)
				victims, found := c.Resize(addr, segs, vbuf[:0])
				if found != present {
					t.Fatalf("%s found=%v, shadow presence %v", op, found, present)
				}
				evict(victims, op)
				if found {
					shadow[addr] = segs
				}
			case 4: // victim match
				op = fmt.Sprintf("victim match %#x", uint64(addr))
				want := false
				for j := len(c.lines) - 1; j >= 0; j-- {
					if ln := c.lines[j]; !ln.Valid && ln.VictimTag && ln.Addr == addr {
						want = true
						break
					}
				}
				before := c.VictimTagCount(addr)
				if got := c.InvalidTagMatch(addr); got != want {
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
				}
			}
			check(op)
		}
	})
}

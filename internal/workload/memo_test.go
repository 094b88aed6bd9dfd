package workload

import (
	"fmt"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
)

// memoKeys is the fuzz address pool: blocks that share the last home
// slot of a fresh memo (their probe chain wraps past the end), the
// addresses the memo refuses (0 and everything from memoLimit up), the
// largest memoized address and blocks from a simulated region.
var memoKeys = func() []cache.BlockAddr {
	d := newRawModel(0.5, 1, codec.Default())
	last := len(d.memo) - 1
	var keys []cache.BlockAddr
	for a := cache.BlockAddr(1); len(keys) < 10; a++ {
		if d.memoHome(a) == last {
			keys = append(keys, a)
		}
	}
	return append(keys, 0, memoLimit-1, memoLimit, memoLimit+1, 1<<63, ^cache.BlockAddr(0),
		0x0200_0000, 0x0200_0001, 0x0800_0AAB)
}()

// FuzzSizeMemo drives random SizeOf/Dirty sequences through the packed
// size memo and checks every size against a reference that prices the
// block's current contents afresh (FillLine, then the codec), and every
// version against a counted model. Op bytes come in pairs (op, key):
// op%3 selects SizeOf, Dirty, or sizing op/3·8 fresh blocks, which
// grows the table; the first byte picks the codec.
func FuzzSizeMemo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 0, 10, 1, 10, 0, 10, 0, 11, 0, 12, 0, 13})
	f.Add([]byte{2, 0, 1, 0, 2, 1, 1, 0, 1, 254, 0, 0, 2})
	f.Add([]byte{3, 0, 0, 1, 0, 0, 0, 0, 9, 1, 9, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		cdcs := codec.All()
		c := cdcs[int(ops[0])%len(cdcs)]
		d := NewDataModelCodec(MustByName("zeus"), 1, c)
		versions := map[cache.BlockAddr]uint32{}
		var line [cache.LineBytes]byte
		check := func(op string, a cache.BlockAddr, got uint8) {
			t.Helper()
			if v := d.Version(a); v != versions[a] {
				t.Fatalf("%s: version %d, model %d", op, v, versions[a])
			}
			d.FillLine(a, line[:])
			if want := uint8(c.CompressedSizeSegments(line[:])); got != want {
				t.Fatalf("%s: SizeOf = %d, contents price at %d (%s)", op, got, want, c.Name())
			}
		}
		fresh := cache.BlockAddr(0x1000_0000)
		var sized []cache.BlockAddr
		for i := 1; i+1 < len(ops); i += 2 {
			a := memoKeys[int(ops[i+1])%len(memoKeys)]
			switch ops[i] % 3 {
			case 0:
				check(fmt.Sprintf("SizeOf %#x", uint64(a)), a, d.SizeOf(a))
				sized = append(sized, a)
			case 1:
				d.Dirty(a)
				versions[a]++
			default:
				for j := 0; j < int(ops[i]/3)*8; j++ {
					d.SizeOf(fresh)
					sized = append(sized, fresh)
					fresh += 0x41
				}
			}
		}
		// Every block sized so far must still answer from the memo (or,
		// for the addresses it refuses, afresh) with its current size.
		for _, a := range sized {
			check(fmt.Sprintf("final SizeOf %#x", uint64(a)), a, d.SizeOf(a))
		}
	})
}

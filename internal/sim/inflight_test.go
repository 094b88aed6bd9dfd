package sim

import (
	"fmt"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/timing"
)

// inflightKeys is the fuzz key pool. At the table's initial size most
// keys share a home slot: 12 hash to the last slot, so their probe
// chain wraps past the end of the array, and 6 to slot 0, where that
// wrapped chain lands. The rest are boundary addresses (0, the largest
// legal block address) and keys from a simulated region.
var inflightKeys = func() []cache.BlockAddr {
	probe := newInflightTable(nil)
	last := len(probe.slots) - 1
	var atLast, atZero []cache.BlockAddr
	for a := cache.BlockAddr(1); len(atLast) < 12 || len(atZero) < 6; a++ {
		switch probe.home(a) {
		case last:
			if len(atLast) < 12 {
				atLast = append(atLast, a)
			}
		case 0:
			if len(atZero) < 6 {
				atZero = append(atZero, a)
			}
		}
	}
	keys := append(atLast, atZero...)
	keys = append(keys, 0, inflightKey-1, 0x0200_0000, 0x0200_0001, 0x0800_0AAB, 0xDEAD_BEEF)
	return keys
}()

// get is a read-only lookup: a's completion tick, if a is in flight.
func (t *inflightTable) get(a cache.BlockAddr) (timing.Tick, bool) {
	if i := t.find(a); i >= 0 {
		return t.slots[i].done, true
	}
	return 0, false
}

// FuzzInflightTable drives random put/get/take/prune sequences against
// the in-flight table and checks every answer against a plain map. Op
// bytes come in triples (op, key, tick): op%5 selects put, get, take,
// prune (tick is the horizon) or a bulk put of op/5 fresh keys that
// forces the table to grow. After every op the table must hold exactly
// the model's entries.
//
// Op 4, a bulk put of no key, instead rebuilds the table in its own
// slots halved key%4 times (a finished System's table is rebuilt in
// its whole array; below the minimum size a fresh array is allocated).
// The result must reuse the array when it is large enough and look
// like a fresh table of its size: every slot empty, no entry, every
// lookup a miss. The ops that follow drive it against an empty model.
func FuzzInflightTable(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 1, 20, 2, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 0, 5, 0, 1, 6, 0, 2, 7, 0, 12, 8, 2, 0, 0, 3, 0, 7, 1, 2, 0})
	f.Add([]byte{249, 0, 0, 0, 3, 9, 3, 0, 100, 2, 4, 0, 1, 5, 0})
	// Grow to 2048 slots, then rebuild in the whole array (same size)
	// and in half of it (smaller), each refilled and probed; then in an
	// eighth of that, below the minimum size (a fresh array), which is
	// refilled until it grows, pruned and probed.
	f.Add([]byte{249, 0, 40, 249, 0, 40, 249, 0, 40, 249, 0, 40, 249, 0, 40, 249, 0, 40, 249, 0, 40, 249, 0, 40, 249, 0, 40, 249, 0, 40, 249, 0, 40,
		4, 0, 0, 0, 0, 9, 1, 0, 0, 249, 0, 40, 249, 0, 40, 249, 0, 40,
		4, 1, 0, 0, 12, 9, 2, 12, 0, 249, 0, 40, 249, 0, 40, 249, 0, 40,
		4, 3, 0, 0, 13, 9, 1, 13, 0, 249, 0, 40, 249, 0, 40, 249, 0, 40, 3, 0, 50, 1, 13, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tab := newInflightTable(nil)
		model := map[cache.BlockAddr]timing.Tick{}
		fresh := cache.BlockAddr(0x1000_0000)
		rebuild := func(halvings byte) string {
			slots := tab.slots[:len(tab.slots)>>(halvings%4)]
			op := fmt.Sprintf("rebuild in %d slots", len(slots))
			tab = newInflightTable(slots)
			if n := len(tab.slots); n < 1<<inflightMinBits || n&(n-1) != 0 || 1<<(64-tab.shift) != n {
				t.Fatalf("%s: %d slots, shift %d", op, n, tab.shift)
			}
			if len(slots) >= 1<<inflightMinBits && &tab.slots[0] != &slots[0] {
				t.Fatalf("%s allocated an array its old one could hold", op)
			}
			for j, e := range tab.slots {
				if e != (inflightSlot{}) {
					t.Fatalf("%s: slot %d holds %+v", op, j, e)
				}
			}
			for k := range model {
				if _, ok := tab.get(k); ok {
					t.Fatalf("%s: %#x still in flight", op, uint64(k))
				}
			}
			clear(model)
			return op
		}
		for i := 0; i+2 < len(ops); i += 3 {
			a := inflightKeys[int(ops[i+1])%len(inflightKeys)]
			tick := timing.Tick(ops[i+2]) - 32 // negative ticks too
			var op string
			switch ops[i] % 5 {
			case 0:
				op = fmt.Sprintf("put %#x %d", uint64(a), tick)
				tab.put(a, tick)
				model[a] = tick
			case 1:
				op = fmt.Sprintf("get %#x", uint64(a))
				got, ok := tab.get(a)
				want, wantOK := model[a]
				if ok != wantOK || got != want {
					t.Fatalf("%s = %d, %v; model %d, %v", op, got, ok, want, wantOK)
				}
			case 2:
				op = fmt.Sprintf("take %#x", uint64(a))
				got, ok := tab.take(a)
				want, wantOK := model[a]
				if ok != wantOK || got != want {
					t.Fatalf("%s = %d, %v; model %d, %v", op, got, ok, want, wantOK)
				}
				delete(model, a)
			case 3:
				op = fmt.Sprintf("prune %d", tick)
				tab.prune(tick)
				for k, d := range model {
					if d < tick {
						delete(model, k)
					}
				}
			default:
				if ops[i] == 4 {
					op = rebuild(ops[i+1])
					break
				}
				n := int(ops[i] / 5)
				op = fmt.Sprintf("bulk put %d", n)
				for j := 0; j < n; j++ {
					tab.put(fresh, tick)
					model[fresh] = tick
					fresh += 0x41
				}
			}
			if tab.used != len(model) {
				t.Fatalf("after %s: table holds %d entries, model %d", op, tab.used, len(model))
			}
			seen := 0
			tab.forEach(func(k cache.BlockAddr, d timing.Tick) {
				seen++
				if want, ok := model[k]; !ok || want != d {
					t.Fatalf("after %s: table entry %#x=%d, model %d, %v", op, uint64(k), d, want, ok)
				}
			})
			if seen != len(model) {
				t.Fatalf("after %s: forEach visited %d entries, model has %d", op, seen, len(model))
			}
			for k, want := range model {
				if got, ok := tab.get(k); !ok || got != want {
					t.Fatalf("after %s: get %#x = %d, %v; model %d", op, uint64(k), got, ok, want)
				}
			}
		}
	})
}

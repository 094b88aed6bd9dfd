package sim

import (
	"math/bits"

	"cmpsim/internal/cache"
	"cmpsim/internal/timing"
)

// inflightTable is the MSHR-equivalent table of outstanding prefetch
// fills: block → completion tick. It is open-addressed, probed
// linearly from a multiplicative hash over a power-of-two slot array.
// Removal shifts the rest of the probe chain back into the hole
// (backward-shift deletion), so there are no tombstones: a lookup ends
// at the first empty slot however many entries were taken or pruned.
type inflightTable struct {
	slots []inflightSlot
	used  int  // occupied slots
	shift uint // 64 - log2(len(slots))
}

// inflightSlot is one entry; key is the block address with inflightKey
// set, and 0 marks an empty slot.
type inflightSlot struct {
	key  cache.BlockAddr
	done timing.Tick
}

// inflightKey tags occupied slots. Block addresses stay below 2^58 (a
// 64-bit byte address has a 58-bit block address, and both cache
// levels' Fill panics above it), so a|inflightKey is unique per block
// and never 0.
const inflightKey cache.BlockAddr = 1 << 63

const inflightMinBits = 8 // log2 of the initial slot count

// newInflightTable returns an empty table in old's slot array, a
// finished table's (nil allocates the minimum size). A table of any
// size answers every operation alike: nothing reads its slot order.
func newInflightTable(old []inflightSlot) inflightTable {
	if len(old) < 1<<inflightMinBits {
		old = make([]inflightSlot, 1<<inflightMinBits)
	} else {
		clear(old)
	}
	return inflightTable{slots: old, shift: uint(64 - bits.TrailingZeros(uint(len(old))))}
}

// home returns the slot a's probe chain starts at.
func (t *inflightTable) home(a cache.BlockAddr) int {
	return int(uint64(a&^inflightKey) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the slot holding a, or -1.
func (t *inflightTable) find(a cache.BlockAddr) int {
	key := a | inflightKey
	mask := len(t.slots) - 1
	for i := t.home(a); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// take removes a and returns its completion tick, if a was in flight.
func (t *inflightTable) take(a cache.BlockAddr) (timing.Tick, bool) {
	i := t.find(a)
	if i < 0 {
		return 0, false
	}
	done := t.slots[i].done
	t.removeAt(i)
	return done, true
}

// put records (or replaces) a's completion tick.
func (t *inflightTable) put(a cache.BlockAddr, done timing.Tick) {
	key := a | inflightKey
	mask := len(t.slots) - 1
	i := t.home(a)
	for ; t.slots[i].key != 0; i = (i + 1) & mask {
		if t.slots[i].key == key {
			t.slots[i].done = done
			return
		}
	}
	t.slots[i] = inflightSlot{key, done}
	t.used++
	if t.used*2 > len(t.slots) {
		t.grow()
	}
}

// grow doubles the slot array and re-inserts every entry.
func (t *inflightTable) grow() {
	old := t.slots
	t.slots = make([]inflightSlot, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := t.home(e.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// removeAt empties slot i and closes the hole: each later entry of the
// probe chain moves back into it unless its home lies cyclically after
// the hole, in which case moving would put it before its own home.
func (t *inflightTable) removeAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = inflightSlot{}
	t.used--
}

// prune drops every entry that completed before min. A removal can
// shift a not-yet-visited entry into slot i, so i is examined again.
// Shifts only move entries backwards along their chains, so no
// unvisited entry lands before i; a kept entry from a chain that wraps
// past the end may move behind i and be examined twice, harmlessly.
func (t *inflightTable) prune(min timing.Tick) {
	for i := 0; i < len(t.slots); {
		if t.slots[i].key != 0 && t.slots[i].done < min {
			t.removeAt(i)
			continue
		}
		i++
	}
}

// forEach visits every entry in slot order (audit support; callers must
// not depend on the order).
func (t *inflightTable) forEach(fn func(cache.BlockAddr, timing.Tick)) {
	for _, e := range t.slots {
		if e.key != 0 {
			fn(e.key&^inflightKey, e.done)
		}
	}
}

package workload

import (
	"math/rand"
	"sync"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
)

// TestSharedSizesMatchPrivate drives one random store and sizing
// sequence through a private model and two models sharing a registry,
// for every codec: every size agrees, and the second shared model reads
// most of its version-0 sizes from the first one's table. The sequence
// dirties enough blocks to grow the shared models' memos, which then
// hold dirtied blocks only.
func TestSharedSizesMatchPrivate(t *testing.T) {
	p := MustByName("jbb")
	for _, c := range codec.All() {
		reg := NewSizeRegistry()
		first := NewDataModelShared(p, 3, c, reg)
		second := NewDataModelShared(p, 3, c, reg)
		if first.shared == nil || first.shared != second.shared {
			t.Fatalf("%s: models with one key must share one table", c.Name())
		}
		memoSlots := len(first.memo)
		for _, d := range []*DataModel{first, second} {
			private := NewDataModelCodec(p, 3, c)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 60_000; i++ {
				a := cache.BlockAddr(0x0200_0000 + rng.Intn(8192))
				if rng.Intn(4) == 0 {
					d.Dirty(a)
					private.Dirty(a)
				} else if got, want := d.SizeOf(a), private.SizeOf(a); got != want {
					t.Fatalf("%s: op %d block %#x: shared size %d, private %d", c.Name(), i, uint64(a), got, want)
				}
			}
		}
		if len(first.memo) == memoSlots {
			t.Errorf("%s: the memo never grew (%d slots); its growth in shared mode went untested", c.Name(), memoSlots)
		}
		f, s := first.SizeCounts(), second.SizeCounts()
		if s.Shared <= f.Shared || s.Computed >= f.Computed {
			t.Errorf("%s: second model shared %d and computed %d sizes, first %d and %d: no reuse",
				c.Name(), s.Shared, s.Computed, f.Shared, f.Computed)
		}
	}
}

// TestPoisonedModelNeverPublishes poisons one of two models sharing a
// table: its wrong sizes stay in its own memo, and the other model,
// sizing the same blocks afterwards, still prices every one exactly.
func TestPoisonedModelNeverPublishes(t *testing.T) {
	p := MustByName("zeus")
	reg := NewSizeRegistry()
	bad := NewDataModelShared(p, 1, codec.Default(), reg)
	good := NewDataModelShared(p, 1, codec.Default(), reg)
	ref := NewDataModelCodec(p, 1, codec.Default())
	bad.PoisonNextSizes(1 << 30)
	wrong := 0
	for a := cache.BlockAddr(0x0300_0000); a < 0x0300_1000; a++ {
		if bad.SizeOf(a) != ref.SizeOf(a) {
			wrong++
		}
	}
	if wrong == 0 {
		t.Fatal("poisoning changed no size")
	}
	for a := cache.BlockAddr(0x0300_0000); a < 0x0300_1000; a++ {
		if got, want := good.SizeOf(a), ref.SizeOf(a); got != want {
			t.Fatalf("block %#x: %d after a poisoned model sized it, want %d", uint64(a), got, want)
		}
	}
	if n := good.SizeCounts().Shared; n != 0 {
		t.Errorf("the clean model read %d sizes a poisoned model could have written", n)
	}
}

// TestEvictedTablePricesOnce evicts a model's table and then makes the
// model size more pages than the evicted table can take without
// growing: the table keeps the pages it took, the model keeps the rest
// in its memo, sizes stay exact, and a second pass reads the table's
// sizes and computes nothing.
func TestEvictedTablePricesOnce(t *testing.T) {
	p := MustByName("jbb")
	r := newSizeRegistry(2 * sizeTableMinSlots)
	d := NewDataModelShared(p, 1, codec.Default(), r)
	ref := NewDataModelCodec(p, 1, codec.Default())
	r.table(sizeKey{seed: 1, codec: "other"})
	r.table(sizeKey{seed: 2, codec: "other"}) // evicts d's table
	if !d.shared.evicted {
		t.Fatal("the model's table was not evicted")
	}
	// One block on each of twice the pages the table holds unless it grows.
	pass := func() {
		for pg := cache.BlockAddr(0); pg < 2*sizeTableMinSlots; pg++ {
			a := 0x0200_0000 + pg<<pageBits + pg%(1<<pageBits)
			if got, want := d.SizeOf(a), ref.SizeOf(a); got != want {
				t.Fatalf("block %#x: %d, want %d", uint64(a), got, want)
			}
		}
	}
	pass()
	first := d.SizeCounts()
	if first.Computed != 2*sizeTableMinSlots {
		t.Errorf("first pass computed %d sizes for %d blocks", first.Computed, 2*sizeTableMinSlots)
	}
	pass()
	pass()
	last := d.SizeCounts()
	if last.Computed != first.Computed {
		t.Errorf("sizing the same blocks again computed %d more sizes", last.Computed-first.Computed)
	}
	if got, want := last.Shared-first.Shared, uint64(2*sizeTableMinSlots*3/4); got != want {
		t.Errorf("two more passes read %d sizes from the evicted table, want %d", got, want)
	}
}

// TestSizeRegistryCap fills tables under the registry's real cap until
// it must evict: the registered tables never hold more than
// maxSharedSlots slots, tables get evicted, and an evicted table keeps
// answering with the sizes written to it.
func TestSizeRegistryCap(t *testing.T) {
	r := NewSizeRegistry()
	var first *sizeTable
	evicted := 0
	for k := 0; evicted == 0 || k < 4; k++ {
		tb, n := r.table(sizeKey{seed: uint64(k), codec: "cap"})
		evicted += n
		if first == nil {
			first = tb
		}
		// Each table grows to a quarter of the cap.
		for p := 0; p < maxSharedSlots/4*3/4; p++ {
			_, n := tb.store(cache.BlockAddr(p)<<pageBits|cache.BlockAddr(p&15), uint8(1+p%8))
			evicted += n
		}
		r.mu.Lock()
		slots := r.slots
		r.mu.Unlock()
		if slots > maxSharedSlots {
			t.Fatalf("after table %d: %d slots registered, cap %d", k, slots, maxSharedSlots)
		}
		if k > 16 {
			t.Fatal("no table was ever evicted")
		}
	}
	if !first.evicted {
		t.Error("the least recently used table survived")
	}
	for p := 0; p < 1000; p++ {
		if got := first.lookup(cache.BlockAddr(p)<<pageBits | cache.BlockAddr(p&15)); got != uint8(1+p%8) {
			t.Fatalf("evicted table: page %d reads %d, want %d", p, got, 1+p%8)
		}
	}
}

// TestSizeRegistryEvictsLeastRecentlyUsed fills a three-table registry:
// using a table again, or growing it, makes it the most recently used,
// and growth evicts the least recently used other table.
func TestSizeRegistryEvictsLeastRecentlyUsed(t *testing.T) {
	r := newSizeRegistry(3*sizeTableMinSlots + sizeTableMinSlots/2)
	key := func(k int) sizeKey { return sizeKey{seed: uint64(k), codec: "lru"} }
	a, _ := r.table(key(1))
	b, _ := r.table(key(2))
	c, _ := r.table(key(3))
	r.table(key(1)) // a is now more recent than b
	// c's growth to twice the minimum size needs one more table's room.
	evicted := 0
	for p := 0; p <= sizeTableMinSlots*3/4; p++ {
		_, n := c.store(cache.BlockAddr(p)<<pageBits, 1)
		evicted += n
	}
	if evicted != 1 || !b.evicted || a.evicted || c.evicted {
		t.Fatalf("evicted %d; a %v b %v c %v, want only b evicted", evicted, a.evicted, b.evicted, c.evicted)
	}
	if got, _ := r.table(key(2)); got == b {
		t.Error("an evicted table was handed out again")
	}
	// Registering b's key again took b's room from a, now the least
	// recently used; c, which grew after a's last use, stays.
	if !a.evicted || c.evicted {
		t.Errorf("a evicted %v, c evicted %v; want a evicted and c kept", a.evicted, c.evicted)
	}
}

// TestSizeTableConcurrentWriters races goroutines that store and look up
// overlapping blocks of one table while it grows (run it with -race):
// every lookup returns 0 or the block's one size, and every block is
// sized at the end.
func TestSizeTableConcurrentWriters(t *testing.T) {
	r := NewSizeRegistry()
	tb, _ := r.table(sizeKey{codec: "race"})
	size := func(a cache.BlockAddr) uint8 { return uint8(1 + uint64(a)*2654435761>>7%15) }
	const blocks = 20_000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < blocks; i++ {
				a := cache.BlockAddr((i*7 + g*1013) % blocks)
				if s := tb.lookup(a); s != 0 && s != size(a) {
					t.Errorf("block %d reads %d, want %d", a, s, size(a))
					return
				}
				tb.store(a, size(a))
			}
		}(g)
	}
	wg.Wait()
	for a := cache.BlockAddr(0); a < blocks; a++ {
		if got := tb.lookup(a); got != size(a) {
			t.Fatalf("block %d reads %d, want %d", a, got, size(a))
		}
	}
}

// TestSharedModelsConcurrent runs shared models of one key on separate
// goroutines (run it with -race), each against its own private twin.
func TestSharedModelsConcurrent(t *testing.T) {
	p := MustByName("apache")
	reg := NewSizeRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shared := NewDataModelShared(p, 2, codec.Default(), reg)
			private := NewDataModelCodec(p, 2, codec.Default())
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20_000; i++ {
				a := cache.BlockAddr(0x0100_0000 + rng.Intn(4096))
				if rng.Intn(5) == 0 {
					shared.Dirty(a)
					private.Dirty(a)
				} else if got, want := shared.SizeOf(a), private.SizeOf(a); got != want {
					t.Errorf("goroutine %d block %#x: shared %d, private %d", g, uint64(a), got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

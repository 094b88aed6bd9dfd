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

// fuzzTableKeys is how many table keys the fuzz's direct table ops use.
const fuzzTableKeys = 4

// FuzzSizeMemo drives random SizeOf/Dirty sequences through three data
// models of one profile and codec: one with a private memo and two that
// share version-0 sizes through a registry. Every size is checked
// against a reference that prices the block's current contents afresh
// (FillLine, then the codec), and every version against a counted
// model. Op bytes come in pairs (op, key); op%6 selects
//
//	0 SizeOf on all three models;
//	1 Dirty on all three;
//	2 sizing op/6·8 fresh blocks, which grows the memos and the table;
//	3 acquiring a table of the registry directly;
//	4 storing op/6·8+1 blocks into the last table acquired for a key;
//	5 a lookup in it;
//
// and the first byte picks the codec. The registry is small (six
// minimum-size tables), so table growth evicts. The direct table ops run
// against a map model (sizeModel): a lookup returns only a size that was
// written, a size once read never changes, the registered tables' slots
// never exceed the cap, and eviction removes the least recently used
// tables. A poisoned fourth model proves a wrong size never reaches the
// shared table.
func FuzzSizeMemo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 0, 10, 1, 10, 0, 10, 0, 11, 0, 12, 0, 13})
	f.Add([]byte{2, 0, 1, 0, 2, 1, 1, 0, 1, 254, 0, 0, 2})
	f.Add([]byte{3, 0, 0, 1, 0, 0, 0, 0, 9, 1, 9, 0, 9})
	f.Add([]byte{0, 3, 0, 3, 1, 250, 0, 5, 0, 3, 2, 250, 2, 5, 2, 3, 3, 250, 3, 5, 0, 5, 3})
	f.Add([]byte{1, 3, 1, 250, 1, 248, 3, 3, 2, 244, 2, 5, 1, 3, 4, 3, 0, 250, 0, 5, 2})
	f.Add([]byte{2, 3, 0, 22, 0, 22, 4, 5, 4, 5, 8, 3, 4, 28, 4, 5, 0})
	// Four tables beside the data models', then growth that must evict
	// the least recently used ones in turn.
	f.Add([]byte{0, 3, 0, 3, 1, 3, 2, 3, 3, 250, 0, 250, 4, 250, 1, 250, 5,
		5, 1, 250, 2, 250, 6, 5, 2, 3, 0, 250, 3, 250, 7, 5, 3, 5, 0})
	// Growth evicts the data models' table; their fresh blocks then
	// fill it past what it holds without growing, and the sizes it
	// cannot take stay in their memos.
	f.Add([]byte{0, 3, 0, 3, 1, 3, 2, 3, 3, 250, 0, 250, 0, 250, 0, 248, 0, 0, 0, 248, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		cdcs := codec.All()
		c := cdcs[int(ops[0])%len(cdcs)]
		reg := newSizeRegistry(6 * sizeTableMinSlots)
		m := newSizeModel(t, reg)
		zeus := MustByName("zeus")
		models := []*DataModel{
			NewDataModelCodec(zeus, 1, c),
			NewDataModelShared(zeus, 1, c, reg),
			NewDataModelShared(zeus, 1, c, reg),
		}
		poisoned := NewDataModelShared(zeus, 1, c, reg)
		shared := models[1].shared
		m.adopt(shared)
		poisoned.PoisonNextSizes(1 << 30)
		// grown mirrors a data-model op's growth of the shared table.
		grown := func(before int) {
			m.registered(shared)
			if len(shared.cur.Load().s) != before {
				m.touch(shared)
			}
		}
		versions := map[cache.BlockAddr]uint32{}
		var line [cache.LineBytes]byte
		check := func(op string, a cache.BlockAddr) {
			t.Helper()
			for i, d := range models {
				if v := d.Version(a); v != versions[a] {
					t.Fatalf("%s: model %d: version %d, model %d", op, i, v, versions[a])
				}
				got := d.SizeOf(a)
				d.FillLine(a, line[:])
				if want := uint8(c.CompressedSizeSegments(line[:])); got != want {
					t.Fatalf("%s: model %d: SizeOf = %d, contents price at %d (%s)", op, i, got, want, c.Name())
				}
			}
			poisoned.SizeOf(a)
		}
		fresh := cache.BlockAddr(0x1000_0000)
		var sized []cache.BlockAddr
		for i := 1; i+1 < len(ops); i += 2 {
			op, key := ops[i], ops[i+1]
			a := memoKeys[int(key)%len(memoKeys)]
			before := len(shared.cur.Load().s)
			switch op % 6 {
			case 0:
				check(fmt.Sprintf("SizeOf %#x", uint64(a)), a)
				sized = append(sized, a)
				grown(before)
			case 1:
				for _, d := range append(models, poisoned) {
					d.Dirty(a)
				}
				versions[a]++
			case 2:
				for j := 0; j < int(op/6)*8; j++ {
					for _, d := range append(models, poisoned) {
						d.SizeOf(fresh)
					}
					sized = append(sized, fresh)
					fresh += 0x41
				}
				grown(before)
			case 3:
				m.acquire(int(key) % fuzzTableKeys)
			case 4:
				m.store(int(key)%fuzzTableKeys, int(op/6)*8+1, key)
			default:
				m.lookup(int(key)%fuzzTableKeys, key)
			}
			m.checkCap()
		}
		// Every block sized so far must still answer from the memo or the
		// shared table (or, for the addresses the memo refuses, afresh)
		// with its current size.
		for _, a := range sized {
			check(fmt.Sprintf("final SizeOf %#x", uint64(a)), a)
		}
		m.lookupAll()
		if poisoned.shared != nil {
			t.Fatal("a poisoned model still holds its shared table")
		}
	})
}

// fuzzBase is the first block the direct table ops write.
const fuzzBase cache.BlockAddr = 0x4000_0000

// sizeModel is FuzzSizeMemo's map model of a registry. It mirrors the
// registry's recency order, remembers every size written to each table
// and the first each lookup returned, and checks the registry against
// them after every operation.
type sizeModel struct {
	t       *testing.T
	reg     *SizeRegistry
	handles [fuzzTableKeys]*sizeTable
	order   []*sizeTable // registered tables, least recently used first
	written map[*sizeTable]map[cache.BlockAddr][]uint8
	seen    map[*sizeTable]map[cache.BlockAddr]uint8
	next    cache.BlockAddr   // next fresh page for store
	blocks  []cache.BlockAddr // blocks store has written, in any table
}

func newSizeModel(t *testing.T, reg *SizeRegistry) *sizeModel {
	return &sizeModel{t: t, reg: reg, next: fuzzBase,
		written: map[*sizeTable]map[cache.BlockAddr][]uint8{},
		seen:    map[*sizeTable]map[cache.BlockAddr]uint8{}}
}

// adopt records a table the registry created outside the model's own
// operations (a data model's) as the most recently used.
func (m *sizeModel) adopt(t *sizeTable) {
	m.registered(nil) // drop whatever that creation evicted
	if !t.evicted {
		m.touch(t)
	}
}

// registered checks that the tables the registry evicted since the last
// call were the least recently used ones other than keep (nil for
// none), and drops them from the recency order.
func (m *sizeModel) registered(keep *sizeTable) {
	m.t.Helper()
	m.reg.mu.Lock()
	live := map[*sizeTable]bool{}
	for _, t := range m.reg.tables {
		live[t] = true
	}
	m.reg.mu.Unlock()
	var kept []*sizeTable
	evicting := true
	for _, t := range m.order {
		switch {
		case live[t]:
			if t != keep {
				evicting = false
			}
			kept = append(kept, t)
		case !evicting:
			m.t.Fatalf("evicted a table while a less recently used one stayed")
		}
	}
	m.order = kept
}

func (m *sizeModel) touch(t *sizeTable) {
	for i, u := range m.order {
		if u == t {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.order = append(m.order, t)
}

func (m *sizeModel) acquire(k int) {
	t, _ := m.reg.table(sizeKey{seed: uint64(k), codec: "fuzz"})
	m.registered(nil)
	m.touch(t)
	m.handles[k] = t
}

// store writes n blocks into key k's table: half on fresh pages, a
// quarter beside a block written before (same page, another size
// field), and a quarter rewriting blocks written before. A block's size
// depends on salt and j too, so a rewrite may carry a different size,
// which the table must ignore.
func (m *sizeModel) store(k, n int, salt byte) {
	t := m.handles[k]
	if t == nil {
		return
	}
	before := len(t.cur.Load().s)
	for j := 0; j < n; j++ {
		a, pick := m.next, uint64(salt)*7+uint64(j)
		switch {
		case len(m.blocks) == 0 || j%4 < 2:
			a += cache.BlockAddr(uint64(salt)+uint64(j)) % (1 << pageBits)
			m.next += 1 << pageBits
			m.blocks = append(m.blocks, a)
		case j%4 == 2:
			a = m.blocks[pick%uint64(len(m.blocks))] ^ 1
			m.blocks = append(m.blocks, a)
		default:
			a = m.blocks[pick%uint64(len(m.blocks))]
		}
		s := uint8(1 + (uint64(a)+pick)%15)
		t.store(a, s)
		if m.written[t] == nil {
			m.written[t] = map[cache.BlockAddr][]uint8{}
		}
		m.written[t][a] = append(m.written[t][a], s)
		m.check(t, a)
	}
	m.registered(t)
	if len(t.cur.Load().s) != before {
		m.touch(t) // growth marks the table used
	}
}

// lookup looks up a block written before in key k's table, or, for one
// salt in three, a block of a page never written.
func (m *sizeModel) lookup(k int, salt byte) {
	t := m.handles[k]
	if t == nil {
		return
	}
	a := m.next + cache.BlockAddr(salt)%(1<<pageBits)
	if salt%3 != 0 && len(m.blocks) > 0 {
		a = m.blocks[uint64(salt)*7%uint64(len(m.blocks))]
	}
	m.check(t, a)
}

// check compares a lookup of a in t with the sizes written there.
func (m *sizeModel) check(t *sizeTable, a cache.BlockAddr) {
	m.t.Helper()
	got := t.lookup(a)
	prev, seen := m.seen[t][a]
	switch {
	case got == 0 && seen:
		m.t.Fatalf("block %#x: size %d vanished", uint64(a), prev)
	case got == 0:
		return
	case seen && got != prev:
		m.t.Fatalf("block %#x: size changed from %d to %d", uint64(a), prev, got)
	}
	found := false
	for _, s := range m.written[t][a] {
		found = found || s == got
	}
	if !found {
		m.t.Fatalf("block %#x: lookup %d, written %v", uint64(a), got, m.written[t][a])
	}
	if m.seen[t] == nil {
		m.seen[t] = map[cache.BlockAddr]uint8{}
	}
	m.seen[t][a] = got
}

func (m *sizeModel) lookupAll() {
	for t, blocks := range m.written {
		for a := range blocks {
			m.check(t, a)
		}
	}
}

// checkCap checks the registry's slot accounting and its cap.
func (m *sizeModel) checkCap() {
	m.t.Helper()
	m.reg.mu.Lock()
	defer m.reg.mu.Unlock()
	sum := 0
	for _, t := range m.reg.tables {
		if n := len(t.cur.Load().s); t.slots != n {
			m.t.Fatalf("table charged %d slots, holds %d", t.slots, n)
		}
		sum += t.slots
	}
	if sum != m.reg.slots || sum > m.reg.limit {
		m.t.Fatalf("registered tables hold %d slots, registry counts %d, cap %d", sum, m.reg.slots, m.reg.limit)
	}
}

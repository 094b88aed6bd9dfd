package prefetch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"cmpsim/internal/cache"
)

// pinnedEngines holds the output hash of every registered kind, per
// level Config and cap mode, keyed "kind/level/cap".
var pinnedEngines = map[string]uint64{
	"stride/L1/uncapped":      0xf41f86d746d81c6f,
	"stride/L1/wandering":     0x67467122562968ad,
	"stride/L2/uncapped":      0xfb94cfe47a3c73fd,
	"stride/L2/wandering":     0xffe6620198270684,
	"sequential/L1/uncapped":  0x228e9ca515b27d57,
	"sequential/L1/wandering": 0xcf826809650b2093,
	"sequential/L2/uncapped":  0xed2bd4a67ea80e03,
	"sequential/L2/wandering": 0x8015fb5cb79cab09,
	"stream/L1/uncapped":      0xa432fac37ea06079,
	"stream/L1/wandering":     0x6739ee2d547809ca,
	"stream/L2/uncapped":      0x8840c1645f443496,
	"stream/L2/wandering":     0xd206dc06dca105db,
	"markov/L1/uncapped":      0xaa17ced778709cc7,
	"markov/L1/wandering":     0x305c7f960e8e7cd5,
	"markov/L2/uncapped":      0xaa17ced778709cc7,
	"markov/L2/wandering":     0x305c7f960e8e7cd5,
}

// engineHash drives p with a fixed seeded stream of demand accesses,
// misses and stream triggers, and hashes everything it answers: each
// returned slice, then StreamStride and Allocations after each step.
// With wander set, the adaptive cap moves every 97 steps through
// values from -8 to 31, which include zero, negatives and values above
// both levels' depths.
func engineHash(p Prefetcher, wander bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	emit := func(out []cache.BlockAddr) {
		put(uint64(len(out)))
		for _, a := range out {
			put(uint64(a))
		}
	}
	rng := rand.New(rand.NewSource(26))
	capVal := 0
	if wander {
		p.SetCap(func() int { return capVal })
	}
	const base = cache.BlockAddr(1 << 20)
	strides := [...]int64{1, -1, 3, -7}
	var cursor [len(strides)]cache.BlockAddr
	for i := range cursor {
		cursor[i] = base + cache.BlockAddr(rng.Intn(1<<16))
	}
	// A fixed chain of scattered nodes, walked in order: recurring miss
	// pairs with no stride.
	chain := make([]cache.BlockAddr, 48)
	for i := range chain {
		chain[i] = base + cache.BlockAddr(rng.Intn(1<<22))
	}
	hop := 0
	for i := 0; i < 20_000; i++ {
		if wander && i%97 == 0 {
			capVal = rng.Intn(40) - 8
		}
		var a cache.BlockAddr
		switch op := rng.Intn(16); {
		case op < 8: // a step along one of the strided streams
			s := rng.Intn(len(strides))
			a = cursor[s]
			cursor[s] = advance(cursor[s], strides[s])
			if rng.Intn(64) == 0 {
				cursor[s] = base + cache.BlockAddr(rng.Intn(1<<16))
			}
		case op < 12: // the next node of the chain
			a = chain[hop]
			hop = (hop + 1) % len(chain)
		case op < 14: // a scattered reference
			a = base + cache.BlockAddr(rng.Intn(1<<22))
		default: // an externally detected stream
			triggers := [...]int64{0, 1, -1, 2, -3, 5}
			emit(p.TriggerStream(base+cache.BlockAddr(rng.Intn(1<<16)), triggers[rng.Intn(len(triggers))]))
			put(uint64(p.StreamStride()))
			put(p.Allocations())
			continue
		}
		emit(p.OnAccess(a))
		if rng.Intn(3) != 0 {
			emit(p.OnMiss(a))
		}
		put(uint64(p.StreamStride()))
		put(p.Allocations())
	}
	return h.Sum64()
}

// TestEnginesPinned pins every registered engine's answers bit for bit
// at both levels' Configs, with no cap and with a wandering cap. A
// change to how engines are built or bound their depth must leave every
// hash where it is.
func TestEnginesPinned(t *testing.T) {
	levels := []struct {
		name string
		cfg  Config
	}{{"L1", L1Config()}, {"L2", L2Config()}}
	var table string
	for _, kind := range Names() {
		for _, lv := range levels {
			for _, wander := range []bool{false, true} {
				key := kind + "/" + lv.name + "/uncapped"
				if wander {
					key = kind + "/" + lv.name + "/wandering"
				}
				got := engineHash(MustByName(kind)(lv.cfg), wander)
				table += fmt.Sprintf("\t%q: %#x,\n", key, got)
				want, ok := pinnedEngines[key]
				switch {
				case !ok:
					t.Errorf("%s: no pinned hash", key)
				case got != want:
					t.Errorf("%s: output hash %#x, want %#x", key, got, want)
				}
			}
		}
	}
	if len(pinnedEngines) != len(Names())*len(levels)*2 {
		t.Errorf("%d pinned entries, want one per kind, level and cap mode", len(pinnedEngines))
	}
	if t.Failed() {
		t.Logf("current hashes:\n%s", table)
	}
}

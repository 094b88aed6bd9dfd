package prefetch

import (
	"math/rand"
	"testing"

	"cmpsim/internal/cache"
)

// linearEngine is the reference FuzzStrideTraining compares the
// indexed filter tables against: the same training rules, written as
// linear scans in index order over plain entries, with replacement by
// the smallest LRU tick.
type linearEngine struct {
	cfg                 Config
	tables              [3][]linearEntry // pos, neg, nonunit
	tick, hits, streams uint64
}

type linearEntry struct {
	valid  bool
	last   cache.BlockAddr
	stride int64
	count  int32
	used   uint64
}

func newLinearEngine(cfg Config) *linearEngine {
	r := &linearEngine{cfg: cfg}
	for k := range r.tables {
		r.tables[k] = make([]linearEntry, cfg.FilterEntries)
	}
	return r
}

// onMiss trains on a miss at a and returns the stride of the stream it
// allocates, or 0.
func (r *linearEngine) onMiss(a cache.BlockAddr) int64 {
	r.tick++
	for k := range r.tables {
		t := r.tables[k]
		for i := range t {
			x := &t[i]
			// Compare expect words as the engine stores them, with
			// expectKey OR-ed into both sides.
			if !x.valid || x.stride == 0 || advance(x.last, x.stride)|expectKey != a|expectKey {
				continue
			}
			x.last, x.used = a, r.tick
			x.count++
			r.hits++
			if x.count >= int32(r.cfg.TrainThreshold) {
				x.valid = false
				r.streams++
				return x.stride
			}
			return 0
		}
	}
	maxStride := int64(r.cfg.MaxStride)
	lo := a - cache.BlockAddr(maxStride)
	for i := range r.tables[2] {
		x := &r.tables[2][i]
		if !x.valid || x.stride != 0 || uint64(x.last-lo) > uint64(2*maxStride) {
			continue
		}
		if d := int64(a) - int64(x.last); d >= 2 && d <= maxStride || d <= -2 && d >= -maxStride {
			*x = linearEntry{valid: true, last: a, stride: d, count: 2, used: r.tick}
			r.hits++
			return 0
		}
	}
	for k, stride := range []int64{1, -1, 0} {
		t := r.tables[k]
		vi := -1
		for i := range t {
			if !t[i].valid {
				vi = i
				break
			}
			if vi < 0 || t[i].used < t[vi].used {
				vi = i
			}
		}
		t[vi] = linearEntry{valid: true, last: a, stride: stride, count: 1, used: r.tick}
	}
	return 0
}

// FuzzStrideTraining feeds the same miss stream to an Engine and to
// linearEngine and checks after every miss that both trained or
// allocated the same entries (the engine's filter state equals the
// reference's entry for entry), returned the same startup prefetches
// and counted the same filter hits and streams, and that the engine's
// invariants, which cross-check both indexes, hold. The first four
// bytes pick the configuration; then each two-byte op places the next
// miss: at a small absolute address (so windows and expect words wrap
// below 0), a step of up to MaxStride+1 either way, a step of exactly
// ±MaxStride, or a replay of a recent miss (so expect words repeat).
// Inputs over 4 KB are skipped to keep each run short.
func FuzzStrideTraining(f *testing.F) {
	f.Add([]byte{31, 62, 2, 5, 0, 10, 1, 1, 1, 1, 1, 1, 1, 1})
	// Duplicate expect words: misses at 10, 9, 10 leave two entries
	// expecting 11.
	f.Add([]byte{7, 3, 1, 2, 0, 10, 0, 9, 0, 10, 0, 11, 0, 12})
	f.Add([]byte{3, 4, 0, 0, 0, 3, 2, 0, 2, 0, 2, 0, 2, 1, 2, 1, 2, 1})
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 4; k++ {
		ops := make([]byte, 600)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 4 || len(ops) > 4096 {
			return
		}
		cfg := Config{
			FilterEntries:  1 + int(ops[0])%filterSlots,
			StreamEntries:  8,
			TrainThreshold: 2 + int(ops[2])%4,
			StartupDepth:   1 + int(ops[3])%8,
			MaxStride:      2 + int(ops[1])%70,
		}
		e, ref := New(cfg), newLinearEngine(cfg)
		maxStride := int64(cfg.MaxStride)
		var a cache.BlockAddr
		var hist [8]cache.BlockAddr
		for i := 4; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			switch ops[i] % 4 {
			case 0:
				a = cache.BlockAddr(arg)
			case 1:
				a = advance(a, int64(int8(arg))%(maxStride+2))
			case 2:
				if arg&1 == 0 {
					a = advance(a, maxStride)
				} else {
					a = advance(a, -maxStride)
				}
			case 3:
				a = hist[int(arg)%len(hist)]
			}
			hist[i/2%len(hist)] = a

			got := e.OnMiss(a)
			stride := ref.onMiss(a)
			if stride == 0 && len(got) != 0 || stride != 0 && len(got) != cfg.StartupDepth {
				t.Fatalf("miss %#x: engine issued %d prefetches, reference allocates stride %d", uint64(a), len(got), stride)
			}
			for k, p := range got {
				if want := advance(a, int64(k+1)*stride); p != want {
					t.Fatalf("miss %#x: prefetch %d is %#x, want %#x", uint64(a), k, uint64(p), uint64(want))
				}
			}
			if e.Stats.FilterHits != ref.hits || e.Stats.StreamAllocs != ref.streams {
				t.Fatalf("miss %#x: filter hits %d streams %d, reference %d and %d",
					uint64(a), e.Stats.FilterHits, e.Stats.StreamAllocs, ref.hits, ref.streams)
			}
			for k, ft := range []*filterTable{&e.pos, &e.neg, &e.nonunit} {
				for j, x := range ref.tables[k] {
					valid := ft.used[j] != 0
					if valid != x.valid || valid && (ft.last[j] != x.last || ft.stride[j] != x.stride ||
						ft.count[j] != x.count || ft.used[j] != x.used) {
						t.Fatalf("miss %#x: table %d entry %d is {valid %v last %#x stride %d count %d used %d}, reference %+v",
							uint64(a), k, j, valid, uint64(ft.last[j]), ft.stride[j], ft.count[j], ft.used[j], x)
					}
				}
			}
			if msg := e.CheckInvariants(); msg != "" {
				t.Fatalf("miss %#x: %s", uint64(a), msg)
			}
		}
	})
}

package prefetch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmpsim/internal/cache"
)

// ActiveStreams returns the number of valid stream entries.
func (e *Engine) ActiveStreams() int {
	n := 0
	for i := range e.streams {
		if e.streams[i].valid {
			n++
		}
	}
	return n
}

// Disabled reports whether prefetching is currently shut off.
func (a *Adaptive) Disabled() bool { return a.counter == 0 }

func collectStartup(e *Engine, start cache.BlockAddr, stride int64, misses int) []cache.BlockAddr {
	var out []cache.BlockAddr
	a := start
	for i := 0; i < misses; i++ {
		out = append(out[:0], e.OnMiss(a)...)
		a = advance(a, stride)
	}
	return out
}

func TestUnitStrideStreamAllocatesAfterFourMisses(t *testing.T) {
	e := New(L1Config())
	reqs := collectStartup(e, 100, 1, 4)
	if len(reqs) != 6 {
		t.Fatalf("startup prefetches = %d, want 6", len(reqs))
	}
	// Misses at 100..103; startup prefetches must be 104..109.
	for i, r := range reqs {
		if want := cache.BlockAddr(104 + i); r != want {
			t.Fatalf("req[%d] = %d, want %d", i, r, want)
		}
	}
	if e.Stats.StreamAllocs != 1 {
		t.Fatalf("stream allocs = %d", e.Stats.StreamAllocs)
	}
}

func TestThreeMissesDoNotAllocate(t *testing.T) {
	e := New(L1Config())
	if reqs := collectStartup(e, 100, 1, 3); len(reqs) != 0 {
		t.Fatalf("3 misses should not allocate, got %v", reqs)
	}
}

func TestNegativeUnitStride(t *testing.T) {
	e := New(L1Config())
	reqs := collectStartup(e, 100, -1, 4)
	if len(reqs) != 6 {
		t.Fatalf("startup prefetches = %d, want 6", len(reqs))
	}
	if reqs[0] != 96 || reqs[5] != 91 {
		t.Fatalf("reqs = %v", reqs)
	}
}

func TestNonUnitStride(t *testing.T) {
	e := New(L1Config())
	// Stride 3: misses at 10,13,16,19 → need threshold 4 recognitions.
	// First miss allocates candidates; second sets stride (count=2);
	// third and fourth strengthen (count=3,4) → allocate.
	reqs := collectStartup(e, 10, 3, 4)
	if len(reqs) != 6 {
		t.Fatalf("startup prefetches = %d, want 6", len(reqs))
	}
	if reqs[0] != 22 || reqs[1] != 25 {
		t.Fatalf("reqs = %v", reqs)
	}
}

func TestStrideBeyondMaxIgnored(t *testing.T) {
	e := New(L1Config()) // MaxStride 64
	if reqs := collectStartup(e, 0, 1000, 8); len(reqs) != 0 {
		t.Fatalf("giant stride should never allocate, got %v", reqs)
	}
}

func TestL2ConfigLaunches25(t *testing.T) {
	e := New(L2Config())
	reqs := collectStartup(e, 100, 1, 4)
	if len(reqs) != 25 {
		t.Fatalf("L2 startup prefetches = %d, want 25", len(reqs))
	}
}

func TestStreamAdvanceKeepsDistance(t *testing.T) {
	e := New(L1Config())
	collectStartup(e, 100, 1, 4) // stream: nextDemand=104, nextPf=110
	reqs := e.OnAccess(104)
	if len(reqs) != 1 || reqs[0] != 110 {
		t.Fatalf("advance reqs = %v, want [110]", reqs)
	}
	reqs = e.OnAccess(105)
	if len(reqs) != 1 || reqs[0] != 111 {
		t.Fatalf("advance reqs = %v, want [111]", reqs)
	}
	// A non-matching access does not advance any stream.
	if reqs = e.OnAccess(500); len(reqs) != 0 {
		t.Fatalf("unrelated access advanced a stream: %v", reqs)
	}
}

func TestStreamAdvanceToleratesOneSkip(t *testing.T) {
	e := New(L1Config())
	collectStartup(e, 100, 1, 4) // nextDemand=104
	// Demand skips 104 and goes straight to 105.
	reqs := e.OnAccess(105)
	if len(reqs) != 1 {
		t.Fatalf("skip tolerance failed: %v", reqs)
	}
	// Stream should now expect 106.
	if reqs = e.OnAccess(106); len(reqs) != 1 {
		t.Fatalf("stream lost after skip: %v", reqs)
	}
}

func TestStreamTableLRUReplacement(t *testing.T) {
	cfg := L1Config()
	cfg.StreamEntries = 2
	e := New(cfg)
	collectStartup(e, 1000, 1, 4)
	collectStartup(e, 2000, 1, 4)
	if e.ActiveStreams() != 2 {
		t.Fatalf("active streams = %d", e.ActiveStreams())
	}
	// Third stream evicts the LRU (the 1000 stream).
	collectStartup(e, 3000, 1, 4)
	if e.ActiveStreams() != 2 {
		t.Fatalf("active streams = %d", e.ActiveStreams())
	}
	// Stream 1004.. should no longer advance.
	if reqs := e.OnAccess(1004); len(reqs) != 0 {
		t.Fatalf("evicted stream advanced: %v", reqs)
	}
	// Stream 3004.. should.
	if reqs := e.OnAccess(3004); len(reqs) != 1 {
		t.Fatalf("fresh stream did not advance: %v", reqs)
	}
}

func TestTriggerStream(t *testing.T) {
	e := New(L2Config())
	reqs := e.TriggerStream(500, 1)
	if len(reqs) != 25 {
		t.Fatalf("trigger issued %d, want 25", len(reqs))
	}
	// Re-trigger of the same stream is suppressed.
	if reqs = e.TriggerStream(501, 1); len(reqs) != 0 {
		t.Fatalf("duplicate trigger issued %v", reqs)
	}
	// Zero stride is rejected.
	if reqs = e.TriggerStream(900, 0); len(reqs) != 0 {
		t.Fatal("zero-stride trigger must be ignored")
	}
}

func TestAdaptiveCapLimitsStartup(t *testing.T) {
	e := New(L1Config())
	ad := NewAdaptive(6)
	e.SetCap(ad.Cap)
	ad.Useless()
	ad.Useless() // counter 4
	reqs := collectStartup(e, 100, 1, 4)
	if len(reqs) != 4 {
		t.Fatalf("capped startup = %d, want 4", len(reqs))
	}
}

func TestAdaptiveDisablesPrefetching(t *testing.T) {
	e := New(L1Config())
	ad := NewAdaptive(6)
	e.SetCap(ad.Cap)
	for i := 0; i < 6; i++ {
		ad.Harmful()
	}
	if !ad.Disabled() {
		t.Fatal("controller should be disabled")
	}
	if reqs := collectStartup(e, 100, 1, 8); len(reqs) != 0 {
		t.Fatalf("disabled engine issued %v", reqs)
	}
	// A useful event re-enables at depth 1.
	ad.Useful()
	if ad.Cap() != 1 {
		t.Fatalf("cap = %d, want 1", ad.Cap())
	}
}

func TestAdaptiveSaturation(t *testing.T) {
	ad := NewAdaptive(6)
	for i := 0; i < 100; i++ {
		ad.Useful()
	}
	if ad.Cap() != 6 {
		t.Fatalf("cap = %d, want saturation at 6", ad.Cap())
	}
	for i := 0; i < 100; i++ {
		ad.Useless()
	}
	if ad.Cap() != 0 {
		t.Fatalf("cap = %d, want floor 0", ad.Cap())
	}
	if ad.UsefulEvents != 100 || ad.UselessEvents != 100 {
		t.Fatal("event counters wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{FilterEntries: 0, StreamEntries: 8, TrainThreshold: 4, StartupDepth: 6, MaxStride: 64},
		{FilterEntries: 32, StreamEntries: 0, TrainThreshold: 4, StartupDepth: 6, MaxStride: 64},
		{FilterEntries: 32, StreamEntries: 8, TrainThreshold: 1, StartupDepth: 6, MaxStride: 64},
		{FilterEntries: 32, StreamEntries: 8, TrainThreshold: 4, StartupDepth: 0, MaxStride: 64},
		{FilterEntries: 32, StreamEntries: 8, TrainThreshold: 4, StartupDepth: 6, MaxStride: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should be rejected", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestNewAdaptiveRejectsZeroMax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("max 0 should panic")
		}
	}()
	NewAdaptive(0)
}

func TestInterleavedStreamsBothDetected(t *testing.T) {
	// Two interleaved miss streams (as from two data structures) must
	// both allocate despite interleaving, via separate filter entries.
	e := New(L1Config())
	issued := 0
	a, b := cache.BlockAddr(1000), cache.BlockAddr(5000)
	for i := 0; i < 4; i++ {
		issued += len(e.OnMiss(a))
		issued += len(e.OnMiss(b))
		a++
		b++
	}
	if e.Stats.StreamAllocs != 2 {
		t.Fatalf("stream allocs = %d, want 2", e.Stats.StreamAllocs)
	}
	if issued != 12 {
		t.Fatalf("issued = %d, want 12", issued)
	}
}

func TestRandomMissesRarelyAllocate(t *testing.T) {
	e := New(L1Config())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		e.OnMiss(cache.BlockAddr(rng.Intn(1 << 24)))
	}
	if e.Stats.StreamAllocs > 5 {
		t.Fatalf("random misses allocated %d streams", e.Stats.StreamAllocs)
	}
}

// Property: startup prefetch addresses always continue the miss stream
// with the trained stride and never include trained addresses.
func TestStartupAddressesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stride := int64(1 + rng.Intn(32))
		if rng.Intn(2) == 0 {
			stride = -stride
		}
		start := cache.BlockAddr(1 << 20)
		e := New(L1Config())
		var reqs []cache.BlockAddr
		a := start
		for i := 0; i < 4; i++ {
			reqs = append(reqs[:0], e.OnMiss(a)...)
			a = advance(a, stride)
		}
		last := advance(a, -stride) // address of the 4th miss
		if len(reqs) != 6 {
			return false
		}
		for k, r := range reqs {
			if r != advance(last, int64(k+1)*stride) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOnMissStrided(b *testing.B) {
	e := New(L2Config())
	a := cache.BlockAddr(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.OnMiss(a)
		a++
	}
}

package prefetch

import (
	"math/rand"
	"strings"
	"testing"

	"cmpsim/internal/cache"
)

// TestRegistry pins the registry contract every caller relies on.
func TestRegistry(t *testing.T) {
	want := []string{"stride", "sequential", "stream", "markov"}
	if got := Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if _, err := ByName(""); err != nil {
		t.Fatalf("empty name must resolve to the default: %v", err)
	}
	_, err := ByName("nosuch")
	if err == nil || !strings.Contains(err.Error(), "stride") {
		t.Errorf("unknown-kind error must list registered names, got %v", err)
	}
	for _, name := range Names() {
		if p := MustByName(name)(L1Config()); p == nil {
			t.Errorf("%s factory returned nil", name)
		}
	}
}

// driveMixed feeds a deterministic mix of short unit-stride runs and
// scattered misses: enough structure that every kind trains, few
// enough distinct runs that the stride engine's suppressed-allocation
// probe trickle (1 probe per 32 allocations at depth 0) never fires
// during the cap-0 subtest.
func driveMixed(p Prefetcher, rng *rand.Rand, n int) (issued int) {
	base := cache.BlockAddr(1 << 12)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // a short unit-stride run of misses
			a := base + cache.BlockAddr(rng.Intn(1<<16))
			for k := 0; k < 8; k++ {
				issued += len(p.OnMiss(a + cache.BlockAddr(k)))
			}
		case 4, 5, 6, 7: // demand accesses (hits) nearby
			a := base + cache.BlockAddr(rng.Intn(1<<16))
			issued += len(p.OnAccess(a))
		case 8: // a scattered (pointer-like) miss
			issued += len(p.OnMiss(base + cache.BlockAddr(rng.Intn(1<<20))))
		default: // an externally detected stream
			issued += len(p.TriggerStream(base+cache.BlockAddr(rng.Intn(1<<16)), 1))
		}
	}
	return issued
}

// TestPrefetcherConformance runs the cross-implementation contract
// against every registered kind.
func TestPrefetcherConformance(t *testing.T) {
	for _, kind := range Names() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			mk := func() Prefetcher { return MustByName(kind)(L1Config()) }

			t.Run("cap-zero-issues-nothing", func(t *testing.T) {
				p := mk()
				p.SetCap(func() int { return 0 })
				// 24 runs keeps stride-engine stream allocations under
				// the 32-allocation probe-trickle period.
				rng := rand.New(rand.NewSource(1))
				if got := driveMixed(p, rng, 24); got != 0 {
					t.Fatalf("cap 0 issued %d prefetches", got)
				}
			})

			t.Run("slices-stable-until-next-call", func(t *testing.T) {
				p := mk()
				rng := rand.New(rand.NewSource(2))
				for i := 0; i < 2000; i++ {
					a := cache.BlockAddr(1<<12 + rng.Intn(1<<14))
					var out []cache.BlockAddr
					if i%3 == 0 {
						out = p.OnMiss(a)
					} else {
						out = p.OnAccess(a)
					}
					snap := append([]cache.BlockAddr(nil), out...)
					// Read-only methods must not clobber the returned
					// slice before the next generating call.
					_ = p.CheckInvariants()
					_ = p.StreamStride()
					_ = p.Allocations()
					for k := range out {
						if out[k] != snap[k] {
							t.Fatalf("returned slice mutated before next call (index %d)", k)
						}
					}
				}
			})

			t.Run("zero-allocs-on-hot-path", func(t *testing.T) {
				p := mk()
				rng := rand.New(rand.NewSource(3))
				driveMixed(p, rng, 10_000) // warm the request buffer
				var a cache.BlockAddr = 1 << 13
				avg := testing.AllocsPerRun(200, func() {
					p.OnAccess(a)
					p.OnMiss(a + 1)
					p.TriggerStream(a+2, 1)
					a += 3
				})
				if avg != 0 {
					t.Fatalf("hot path allocates %.2f allocs/op", avg)
				}
			})

			t.Run("invariants-under-random-load", func(t *testing.T) {
				p := mk()
				capVal := -1 // unlimited until SetCap draws below
				p.SetCap(func() int {
					if capVal < 0 {
						return 1 << 30
					}
					return capVal
				})
				rng := rand.New(rand.NewSource(4))
				for i := 0; i < 10_000; i++ {
					a := cache.BlockAddr(rng.Intn(1 << 22))
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4:
						p.OnAccess(a)
					case 5, 6, 7, 8:
						p.OnMiss(a)
					default:
						strides := []int64{1, 2, -1}
						p.TriggerStream(a, strides[rng.Intn(len(strides))])
					}
					if i%500 == 0 {
						capVal = rng.Intn(8) - 1 // wander through 0..6 and unlimited
					}
					if i%100 == 0 {
						if msg := p.CheckInvariants(); msg != "" {
							t.Fatalf("invariant violated after %d ops: %s", i, msg)
						}
					}
				}
				if msg := p.CheckInvariants(); msg != "" {
					t.Fatalf("invariant violated at end: %s", msg)
				}
			})
		})
	}
}

// TestCorruptStreamTripsInvariants pins the audit fault hook: every
// kind that offers CorruptStream must then fail its own invariants.
func TestCorruptStreamTripsInvariants(t *testing.T) {
	for _, kind := range Names() {
		p := MustByName(kind)(L1Config())
		c, ok := p.(interface{ CorruptStream() })
		if !ok {
			continue // sequential has no stream state to corrupt
		}
		c.CorruptStream()
		if p.CheckInvariants() == "" {
			t.Errorf("%s: CorruptStream left invariants clean", kind)
		}
	}
}

// BenchmarkPrefetcher measures the per-call hot path of every kind
// under the mixed pattern (bench-smoke tracks allocations).
func BenchmarkPrefetcher(b *testing.B) {
	for _, kind := range Names() {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			p := MustByName(kind)(L1Config())
			rng := rand.New(rand.NewSource(5))
			driveMixed(p, rng, 10_000)
			var a cache.BlockAddr = 1 << 13
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.OnAccess(a)
				p.OnMiss(a + 1)
				a += 3
			}
		})
	}
}

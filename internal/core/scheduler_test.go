package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmpsim/internal/sim"
)

// MustWait is Wait for tests iterating known-good benchmark names.
func (f *PointFuture) MustWait() Point {
	p, err := f.Wait()
	if err != nil {
		panic(err)
	}
	return p
}

// TestSchedulerDeterminism is the scheduler's regression contract: the
// same study run serially (one worker) and in parallel must produce
// bit-identical Points, proving the fan-out introduces no hidden shared
// state. Fresh schedulers keep the comparison honest — with a shared
// cache the second run would trivially return the first run's points.
func TestSchedulerDeterminism(t *testing.T) {
	o := tinyOptions()
	benches := []string{"zeus", "mgrid"}

	serial := NewScheduler(1)
	defer serial.Close()
	parallel := NewScheduler(4)
	defer parallel.Close()

	for _, b := range benches {
		for _, m := range []Mechanisms{Base, Compression, AdaptiveCompr} {
			ps := serial.Submit(b, m, o).MustWait()
			pp := parallel.Submit(b, m, o).MustWait()
			if !reflect.DeepEqual(ps, pp) {
				t.Fatalf("%s/%s: serial and parallel points differ\nserial:   %+v\nparallel: %+v",
					b, m.Label(), ps, pp)
			}
		}
	}

	rs := serial.PrefetchStudy(benches, o)
	rp := parallel.PrefetchStudy(benches, o)
	if !reflect.DeepEqual(rs, rp) {
		t.Fatalf("PrefetchStudy rows differ\nserial:   %+v\nparallel: %+v", rs, rp)
	}
}

func TestSchedulerCacheDedup(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(2)
	defer s.Close()

	p1 := s.Submit("zeus", Base, o).MustWait()
	p2 := s.Submit("zeus", Base, o).MustWait()
	if &p1.Runs[0] != &p2.Runs[0] {
		t.Fatal("second request did not hit the cache")
	}
	st := s.Stats()
	if st.Requests != 2 || st.Unique != 1 || st.Cached() != 1 || st.SeedRuns != uint64(o.Seeds) {
		t.Fatalf("stats = %+v", st)
	}

	// Scheduling-only and aliasing option differences share the entry.
	o2 := o
	o2.PrefetcherKind = "stride"
	o2.DecompressionCycles = 99 // ignored: DecompressionSet is false
	o2.PointTimeout = time.Minute
	o2.CheckLevel = "invariants"
	s.Submit("zeus", Base, o2).MustWait()
	if got := s.Stats().Unique; got != 1 {
		t.Fatalf("canonicalization missed: unique = %d", got)
	}

	// Semantic differences do not collide.
	o3 := o
	o3.BandwidthGBps = 0
	s.Submit("zeus", Base, o3).MustWait()
	if got := s.Stats().Unique; got != 2 {
		t.Fatalf("distinct options shared an entry: unique = %d", got)
	}
}

func TestSchedulerErrorPoints(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(1)
	defer s.Close()

	if _, err := s.Submit("nosuch", Base, o).Wait(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	bad := o
	bad.Seeds = 0
	if _, err := s.Submit("zeus", Base, bad).Wait(); err == nil {
		t.Fatal("zero seeds accepted")
	}
	if got := s.Stats().SeedRuns; got != 0 {
		t.Fatalf("invalid submissions ran %d simulations", got)
	}
}

// TestStudiesShareBasePoints checks the cross-study memoization the
// scheduler exists for: AdaptiveStudy reuses the base/prefetch/adaptive
// points PrefetchStudy already simulated.
func TestStudiesShareBasePoints(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(0)
	defer s.Close()
	benches := []string{"zeus"}

	s.PrefetchStudy(benches, o) // base, prefetch, adaptive-pf
	u := s.Stats().Unique
	if u != 3 {
		t.Fatalf("PrefetchStudy simulated %d points, want 3", u)
	}
	s.AdaptiveStudy(benches, o) // adds only pf+compr and adaptive+compr
	if got := s.Stats().Unique - u; got != 2 {
		t.Fatalf("AdaptiveStudy simulated %d new points, want 2", got)
	}
}

// TestSchedulerObserver checks the progress-event contract: one
// PointStart and one PointFinish per unique point, PointCached for
// repeat submissions, an immediate PointFinish with the error for
// invalid ones, and a non-nil Point with positive wall-clock on
// successful finishes.
func TestSchedulerObserver(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(2)
	defer s.Close()

	var mu sync.Mutex
	var events []PointEvent
	s.SetObserver(func(ev PointEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	s.Submit("zeus", Base, o).MustWait()
	s.Submit("zeus", Base, o).MustWait() // cached
	s.Submit("zeus", Prefetch, o).MustWait()
	if _, err := s.Submit("nosuch", Base, o).Wait(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}

	mu.Lock()
	defer mu.Unlock()
	counts := make(map[PointEventKind]int)
	for _, ev := range events {
		counts[ev.Kind]++
		switch ev.Kind {
		case PointFinish:
			if ev.Err == nil {
				if ev.Point == nil {
					t.Errorf("%s/%s: finish event without point", ev.Benchmark, ev.Mechanisms.Label())
				}
				if ev.Wall <= 0 {
					t.Errorf("%s/%s: finish event with wall %v", ev.Benchmark, ev.Mechanisms.Label(), ev.Wall)
				}
			} else if ev.Point != nil {
				t.Errorf("%s: failed finish carries a point", ev.Benchmark)
			}
		case PointStart, PointCached:
			if ev.Seeds != o.Seeds {
				t.Errorf("%v event reports %d seeds, want %d", ev.Kind, ev.Seeds, o.Seeds)
			}
		}
	}
	// zeus/base + zeus/pf started and finished; nosuch finished with an
	// error but never started; the repeat submission was served cached.
	if counts[PointStart] != 2 || counts[PointFinish] != 3 || counts[PointCached] != 1 {
		t.Fatalf("event counts start/finish/cached = %d/%d/%d, want 2/3/1",
			counts[PointStart], counts[PointFinish], counts[PointCached])
	}
}

// TestSchedulerTelemetryPlumbing: Options.TelemetryInterval must reach
// the per-seed sim configs (every run carries a timeline) and its zero
// value must leave timelines off. The two variants are distinct cache
// entries — the interval changes the result payload.
func TestSchedulerTelemetryPlumbing(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(2)
	defer s.Close()

	plain := s.Submit("zeus", Base, o).MustWait()
	for i := range plain.Runs {
		if plain.Runs[i].Timeline != nil {
			t.Fatalf("seed %d has a timeline with telemetry disabled", i)
		}
	}

	o.TelemetryInterval = 30_000
	traced := s.Submit("zeus", Base, o).MustWait()
	if s.Stats().Unique != 2 {
		t.Fatalf("telemetry variant shared the plain cache entry: %+v", s.Stats())
	}
	for i := range traced.Runs {
		if len(traced.Runs[i].Timeline) == 0 {
			t.Fatalf("seed %d missing timeline samples", i)
		}
	}
	// Identical non-timeline metrics: sampling must not perturb the run.
	a, b := plain.Runs[0], traced.Runs[0]
	b.Timeline = nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("telemetry perturbed the simulation:\n%+v\nvs\n%+v", a, b)
	}
}

// fakeStore is a PointStore that records every Add and can be told to
// refuse them.
type fakeStore struct {
	mu   sync.Mutex
	adds int
	err  error
}

func (f *fakeStore) Lookup(string, Mechanisms, Options) (Point, bool) { return Point{}, false }

func (f *fakeStore) Add(PointRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	f.adds++
	return nil
}

// TestFinishOrderPersistCountNotifyPublish pins the durability contract
// on both execution paths (local seed jobs and a PointRunner): by the
// time Wait returns, the point is in the store (or, if the store refused
// it, counted in Failed as a "persist:" PointError) and the observer has
// already seen its PointFinish.
func TestFinishOrderPersistCountNotifyPublish(t *testing.T) {
	o := tinyOptions()
	o.Seeds = 1
	remote := func(bench string, m Mechanisms, o Options) (Point, error) {
		return Point{Benchmark: bench, Mechanisms: m, Runs: make([]sim.Metrics, o.Seeds)}, nil
	}
	for _, path := range []string{"local", "remote"} {
		for _, storeErr := range []error{nil, errors.New("disk full")} {
			t.Run(fmt.Sprintf("%s/storeErr=%v", path, storeErr), func(t *testing.T) {
				s := NewScheduler(2)
				defer s.Close()
				st := &fakeStore{err: storeErr}
				s.SetPointStore(st)
				if path == "remote" {
					s.SetPointRunner(remote)
				}
				var finished atomic.Int32
				s.SetObserver(func(ev PointEvent) {
					if ev.Kind == PointFinish {
						finished.Add(1)
					}
				})
				_, err := s.Submit("zeus", Base, o).Wait()
				if finished.Load() != 1 {
					t.Fatalf("Wait returned before the PointFinish event (%d seen)", finished.Load())
				}
				st.mu.Lock()
				adds := st.adds
				st.mu.Unlock()
				failed := s.Stats().Failed
				if storeErr == nil {
					if err != nil || adds != 1 || failed != 0 {
						t.Fatalf("err %v, %d adds, %d failed; want nil, 1, 0", err, adds, failed)
					}
					return
				}
				var pe *PointError
				if !errors.As(err, &pe) || pe.Reason != ReasonError || !strings.Contains(pe.Error(), "persist: disk full") {
					t.Fatalf("store refusal surfaced as %v, want a persist PointError", err)
				}
				if failed != 1 {
					t.Fatalf("Stats().Failed = %d after Wait, want 1", failed)
				}
			})
		}
	}
}

// The scheduler benchmarks run the same study on a private, empty
// scheduler each iteration, so the serial/parallel wall-clock ratio
// measures fan-out speedup, not cache hits.

func BenchmarkSchedulerSerial(b *testing.B)   { benchScheduler(b, 1) }
func BenchmarkSchedulerParallel(b *testing.B) { benchScheduler(b, 0) }

func benchScheduler(b *testing.B, workers int) {
	// A scaled-down system: 4 cores, a 2 MB L2 and half the pins for
	// half the cores.
	o := Options{Cores: 4, Seeds: 1, Warmup: 300_000, Measure: 150_000, BandwidthGBps: 10, L2MB: 2}
	for i := 0; i < b.N; i++ {
		s := NewScheduler(workers)
		s.CompressionStudy(CommercialBenchmarks(), o)
		s.Close()
	}
}

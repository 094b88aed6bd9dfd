package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"cmpsim/internal/codec"
	"cmpsim/internal/faultinject"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/sim"
	"cmpsim/internal/workload"
)

// raceEnabled reports a -race build (race_test.go), whose sync.Pool
// drops a quarter of what it is handed on purpose.
var raceEnabled bool

// walkPoint is one point of recycleWalk.
type walkPoint struct {
	bench       string
	mech        Mechanisms
	cores, l2MB int
	engine      string // "" without prefetching
	codec       string
}

// recycleWalk is a submission order whose consecutive points walk
// every transition of a System's recycled storage (walkTransitions),
// over every reference source, every prefetch engine and, under
// compression, every codec. With one worker each point is built in the
// storage the one before it left.
var recycleWalk = []walkPoint{
	{"zeus", CacheCompr, 2, 1, "", "fpc"},
	{"ptrchase", AdaptivePf, 8, 4, "stride", "bdi"},
	{"hashprobe", Prefetch, 2, 4, "sequential", "zca"},
	{"btree", AdaptivePf, 2, 1, "stream", "cpack"},
	{"srvmix", AdaptiveCompr, 8, 1, "markov", "bdi"},
	{"zeus", LinkCompr, 8, 4, "", "cpack"},
	{"ptrchase", PrefCompr, 2, 4, "markov", "zca"},
	{"hashprobe", AdaptiveCompr, 2, 1, "sequential", "cpack"},
	{"btree", Base, 8, 1, "", "fpc"},
	{"srvmix", Compression, 2, 4, "", "zca"},
}

func (p walkPoint) options() Options {
	return Options{Cores: p.cores, Seeds: 1, Warmup: 4_000, Measure: 3_000, BandwidthGBps: 20,
		L2MB: p.l2MB, Codec: p.codec, PrefetcherKind: p.engine}
}

// l2Kind names the shared L2 a point builds: compressed, or plain with
// or without the adaptive prefetcher's victim FIFO.
func (p walkPoint) l2Kind() string {
	switch {
	case p.mech.CacheCompression:
		return "compressed"
	case p.mech.Adaptive:
		return "plain+fifo"
	}
	return "plain"
}

// walkTransitions lists every storage transition between consecutive
// points of the walk.
func walkTransitions(walk []walkPoint) map[string]bool {
	seen := map[string]bool{}
	for i := 1; i < len(walk); i++ {
		a, b := walk[i-1], walk[i]
		seen[a.l2Kind()+" -> "+b.l2Kind()] = true
		seen[fmt.Sprintf("%d MB -> %d MB", a.l2MB, b.l2MB)] = true
		seen[fmt.Sprintf("%d cores -> %d cores", a.cores, b.cores)] = true
	}
	return seen
}

// TestRecycleWalkCoverage checks that recycleWalk walks what it claims.
func TestRecycleWalkCoverage(t *testing.T) {
	seen := walkTransitions(recycleWalk)
	for _, want := range []string{
		"compressed -> plain", "plain -> compressed", "compressed -> plain+fifo", "plain+fifo -> compressed",
		"plain+fifo -> plain", "plain -> plain+fifo",
		"1 MB -> 4 MB", "4 MB -> 1 MB", "2 cores -> 8 cores", "8 cores -> 2 cores",
	} {
		if !seen[want] {
			t.Errorf("no consecutive points walk %s", want)
		}
	}
	sources, engines, codecs := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, p := range recycleWalk {
		prof, err := workload.ByName(p.bench)
		if err != nil {
			t.Fatal(err)
		}
		kind := prof.Kind
		if kind == "" {
			kind = workload.DefaultSource
		}
		sources[kind] = true
		if p.mech.Prefetching {
			engines[p.engine] = true
		}
		if p.mech.CacheCompression || p.mech.LinkCompression {
			codecs[p.codec] = true
		}
	}
	for _, s := range workload.SourceNames() {
		if !sources[s] {
			t.Errorf("no point draws references from %s", s)
		}
	}
	for _, e := range prefetch.Names() {
		if !engines[e] {
			t.Errorf("no point prefetches with %s", e)
		}
	}
	for _, c := range codec.Names() {
		if !codecs[c] {
			t.Errorf("no point compresses with %s", c)
		}
	}
}

// TestRecycledSystemsBitIdentical is the recycling differential test:
// recycleWalk's points, run through a 1-worker and then a 2-worker
// scheduler, must equal direct sim.Run calls (which never recycle)
// byte for byte. On each scheduler three points run first and leave
// bad storage behind for the clean ones to be built in: a
// compressed L2 corrupted by corrupt-segs under the invariant audit
// (the run fails, so its storage is dropped), one corrupted by dup-tag
// with the audit off (the run finishes and hands the corrupted storage
// back), and a point the watchdog abandons, whose run wakes up while
// clean points run and must never share their arrays (-race).
func TestRecycledSystemsBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d workers", workers), func(t *testing.T) {
			s := NewScheduler(workers)
			defer s.Close()
			s.SetStateFaultHook(func(bench, _ string, _ int) string {
				switch bench {
				case "jbb":
					return "corrupt-segs@500"
				case "apache":
					return "dup-tag@500"
				}
				return ""
			})
			stall := faultinject.New(faultinject.Rule{
				Kind: faultinject.Stall, Benchmark: "oltp", Label: Compression.Label(), Seed: 0,
				StallFor: 100 * time.Millisecond,
			})
			s.SetFaultHook(stall.Hook)

			bad := Options{Cores: 2, Seeds: 1, Warmup: 4_000, Measure: 3_000, BandwidthGBps: 20, L2MB: 1}
			segs := bad
			segs.CheckLevel = "invariants"
			if _, err := s.Submit("jbb", CacheCompr, segs).Wait(); err == nil {
				t.Fatal("the corrupt-segs point passed its audit")
			}
			dup := bad
			dup.CheckLevel = "off"
			if _, err := s.Submit("apache", CacheCompr, dup).Wait(); err != nil {
				t.Fatalf("the dup-tag point did not finish: %v", err)
			}
			abandoned := bad
			abandoned.PointTimeout = 10 * time.Millisecond
			if _, err := s.Submit("oltp", Compression, abandoned).Wait(); err == nil {
				t.Fatal("the stalled point was not abandoned")
			}
			before := s.Stats()

			futs := make([]*PointFuture, len(recycleWalk))
			for i, p := range recycleWalk {
				futs[i] = s.Submit(p.bench, p.mech, p.options())
			}
			for i, p := range recycleWalk {
				sameAsDirect(t, p.bench, p.mech, p.options(), futs[i].MustWait())
			}
			st := s.Stats()
			recycled, fresh := st.StorageRecycled-before.StorageRecycled, st.StorageFresh-before.StorageFresh
			if recycled+fresh != uint64(len(recycleWalk)) || recycled == 0 {
				t.Fatalf("%d of %d clean points built in recycled storage and %d fresh", recycled, len(recycleWalk), fresh)
			}
			t.Logf("clean points: %d built in recycled storage, %d fresh", recycled, fresh)
		})
	}
}

// TestRecycledPointsAllocateLittle is the allocation guard of the fleet
// path: fleet-sized points (2 cores, 1 MB L2) through one warm
// single-worker scheduler must allocate, per point on average, less
// than a third of what building one such point's System fresh
// (sim.NewSystem, compression and prefetching on) allocates. That
// leaves room for an occasional pool miss after a GC; a System that
// allocates its storage again on every point fails. Other goroutines
// of the test binary (a watchdog-abandoned run of an earlier test) can
// allocate during a round, so the least of three rounds counts.
func TestRecycledPointsAllocateLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of the storage it is handed")
	}
	var m0, m1 runtime.MemStats
	s := NewScheduler(1)
	defer s.Close()
	benches := []string{"zeus", "ptrchase", "apache"}
	mechs := []Mechanisms{Base, CacheCompr, LinkCompr, Compression, Prefetch, AdaptivePf, PrefCompr, AdaptiveCompr}
	options := func(bw float64) Options {
		return Options{Cores: 2, Seeds: 1, Warmup: 3_000, Measure: 2_000, BandwidthGBps: bw, L2MB: 1, CheckLevel: "off"}
	}
	// round runs one point per bench × mechanism at bandwidth bw (a
	// new bandwidth makes new points) and returns the bytes allocated
	// per point.
	round := func(bw float64) uint64 {
		o := options(bw)
		var futs []*PointFuture
		runtime.ReadMemStats(&m0)
		for _, b := range benches {
			for _, m := range mechs {
				futs = append(futs, s.Submit(b, m, o))
			}
		}
		for _, f := range futs {
			f.MustWait()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(futs))
	}
	round(5) // warm: knob calibration, size tables and the pool
	runtime.ReadMemStats(&m0)
	sys, err := sim.NewSystem(options(5).config("zeus", PrefCompr, 1))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sys)
	limit := (m1.TotalAlloc - m0.TotalAlloc) / 3
	best := uint64(math.MaxUint64)
	var all []uint64
	for bw := 10.0; bw <= 30; bw += 10 {
		a := round(bw)
		all = append(all, a)
		best = min(best, a)
	}
	t.Logf("bytes allocated per point in three rounds: %v (limit %d)", all, limit)
	if best > limit {
		t.Fatalf("fleet-sized points allocate %d bytes each at best (rounds %v), over a third of a fresh System's (%d): is the System no longer built in recycled storage?",
			best, all, limit)
	}
	if st := s.Stats(); st.StorageRecycled == 0 {
		t.Fatalf("stats %+v: nothing recycled", st)
	}
}

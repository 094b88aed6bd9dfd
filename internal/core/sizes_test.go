package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"cmpsim/internal/codec"
	"cmpsim/internal/sim"
	"cmpsim/internal/workload"
)

// sizesOptions is a small point whose data model sees stores dirty
// blocks (zeus) and whose seeds share one table per codec.
func sizesOptions(c string) Options {
	return Options{Cores: 2, Seeds: 2, Warmup: 20_000, Measure: 10_000, BandwidthGBps: 20, L2MB: 1, Codec: c}
}

// requireSizesReleased fails unless no scheduler holds the shared
// sizes: every scheduler an earlier test opened is closed.
func requireSizesReleased(t *testing.T) {
	t.Helper()
	sharedSizes.mu.Lock()
	holders, reg := sharedSizes.holders, sharedSizes.reg
	sharedSizes.mu.Unlock()
	if holders != 0 || reg != nil {
		t.Fatalf("%d scheduler(s) still hold the shared sizes (registry dropped: %v)", holders, reg == nil)
	}
}

// sameAsDirect checks every run of p against a direct sim.Run of the
// same seed's config, byte for byte as JSON.
func sameAsDirect(t *testing.T, bench string, m Mechanisms, o Options, p Point) {
	t.Helper()
	for i, got := range p.Runs {
		want, err := sim.Run(o.config(bench, m, int64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Fatalf("%s/%s/%s seed %d: scheduled run differs from sim.Run\n got %s\nwant %s",
				bench, m.Label(), o.Codec, i+1, g, w)
		}
	}
}

// TestSharedSizesBitIdentical is the shared size table's differential
// test: for every codec under cache compression only, link compression
// only and both, points run through one 2-worker scheduler, later ones
// reading sizes earlier ones published, must equal direct sim.Run calls
// byte for byte. A state-faulted point poisons its sizes first on the
// same scheduler; it must not change the clean points.
func TestSharedSizesBitIdentical(t *testing.T) {
	const bench = "zeus"
	mechs := []Mechanisms{CacheCompr, LinkCompr, Compression}
	s := NewScheduler(2)
	defer s.Close()
	s.SetStateFaultHook(func(_, label string, _ int) string {
		if label == PrefCompr.Label() {
			return "corrupt-size@200"
		}
		return ""
	})
	for _, c := range codec.All() {
		bad := sizesOptions(c.Name())
		bad.CheckLevel = "off" // let the poisoned run finish
		if _, err := s.Submit(bench, PrefCompr, bad).Wait(); err != nil {
			t.Fatalf("%s: state-faulted point: %v", c.Name(), err)
		}
	}
	before := s.Stats()

	var futs []*PointFuture
	for _, c := range codec.All() {
		for _, m := range mechs {
			futs = append(futs, s.Submit(bench, m, sizesOptions(c.Name())))
		}
	}
	var alone uint64 // sizes the clean runs compute, each on an empty table
	i := 0
	for _, c := range codec.All() {
		o := sizesOptions(c.Name())
		for _, m := range mechs {
			p, err := futs[i].Wait()
			i++
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Label(), c.Name(), err)
			}
			sameAsDirect(t, bench, m, o, p)
			for seed := int64(1); seed <= int64(o.Seeds); seed++ {
				_, n, err := sim.RunShared(o.config(bench, m, seed), workload.NewSizeRegistry())
				if err != nil {
					t.Fatal(err)
				}
				alone += n.Sizes.Computed
			}
		}
	}
	st := s.Stats()
	shared, computed := st.SizesShared-before.SizesShared, st.SizesComputed-before.SizesComputed
	if shared == 0 || computed >= alone {
		t.Fatalf("clean points shared %d sizes and computed %d, %d alone: nothing was reused", shared, computed, alone)
	}
	t.Logf("clean points: %d sizes shared, %d computed (%d when each run alone)", shared, computed, alone)
}

// TestSharedSizesLifetime checks the registry's scope: two schedulers
// open at once share one registry (and, under -race, run Systems
// sharing its tables concurrently with bit-identical results), and once
// both are closed the process drops it, so the next scheduler starts
// empty.
func TestSharedSizesLifetime(t *testing.T) {
	requireSizesReleased(t)
	a, b := NewScheduler(2), NewScheduler(1)
	if a.sizes == nil || a.sizes != b.sizes {
		t.Fatal("two open schedulers hold different registries")
	}
	o := sizesOptions("bdi")
	fa := []*PointFuture{a.Submit("jbb", CacheCompr, o), a.Submit("jbb", Compression, o)}
	fb := []*PointFuture{b.Submit("jbb", LinkCompr, o), b.Submit("jbb", PrefCompr, o)}
	for i, m := range []Mechanisms{CacheCompr, Compression} {
		sameAsDirect(t, "jbb", m, o, fa[i].MustWait())
	}
	for i, m := range []Mechanisms{LinkCompr, PrefCompr} {
		sameAsDirect(t, "jbb", m, o, fb[i].MustWait())
	}
	if a.Stats().SizesShared+b.Stats().SizesShared == 0 {
		t.Error("no seed job read a shared size")
	}
	old := a.sizes
	a.Close()
	b.Close()
	requireSizesReleased(t)
	c := NewScheduler(1)
	defer c.Close()
	if c.sizes == old {
		t.Fatal("a scheduler opened after every other one closed reuses their registry")
	}
}

// TestCloseReleasesSizesAtOnce closes a scheduler while its jobs are
// still queued and opens the next one straight away, as a sweep does
// between passes: the new scheduler gets a fresh registry with no wait,
// and the old scheduler's points still finish bit-identical to sim.Run
// on the registry they captured.
func TestCloseReleasesSizesAtOnce(t *testing.T) {
	requireSizesReleased(t)
	a := NewScheduler(1)
	o := sizesOptions("fpc")
	mechs := []Mechanisms{CacheCompr, LinkCompr, Compression}
	var futs []*PointFuture
	for _, m := range mechs {
		futs = append(futs, a.Submit("apache", m, o))
	}
	old := a.sizes
	a.Close()
	b := NewScheduler(1)
	defer b.Close()
	if b.sizes == old {
		t.Fatal("the scheduler opened right after Close reuses the closed one's registry")
	}
	for i, m := range mechs {
		sameAsDirect(t, "apache", m, o, futs[i].MustWait())
	}
	if a.Stats().SizesShared == 0 {
		t.Error("the closed scheduler's queued jobs shared no size")
	}
}

// TestDirectRunLeavesSharedSizesAlone runs a point's config through
// sim.Run while a scheduler holds the process's registry, then the same
// point through the scheduler: the scheduled run must find nothing to
// reuse, computing exactly the sizes a run on an empty registry does.
func TestDirectRunLeavesSharedSizesAlone(t *testing.T) {
	requireSizesReleased(t)
	s := NewScheduler(1)
	defer s.Close()
	o := sizesOptions("cpack")
	o.Seeds = 1
	cfg := o.config("apache", Compression, 1)
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	_, info, err := sim.RunShared(cfg, workload.NewSizeRegistry())
	if err != nil {
		t.Fatal(err)
	}
	alone := info.Sizes
	s.Submit("apache", Compression, o).MustWait()
	st := s.Stats()
	if st.SizesComputed != alone.Computed || st.SizesShared != alone.Shared {
		t.Fatalf("scheduled run shared %d and computed %d sizes; on an empty registry %d and %d",
			st.SizesShared, st.SizesComputed, alone.Shared, alone.Computed)
	}
}

package core

import (
	"reflect"
	"testing"

	"cmpsim/internal/prefetch"
	"cmpsim/internal/workload"
)

// TestIrregularStudyDeterministicAcrossRepeats pins the irregular
// study's reproducibility contract: the full (benchmark × prefetcher)
// grid over the linked-data-structure suite is bit-identical across two
// runs. Each run uses an isolated scheduler — the shared one would serve
// the second run from its point cache and the comparison would prove
// nothing.
func TestIrregularStudyDeterministicAcrossRepeats(t *testing.T) {
	benches := IrregularBenchmarks()
	if want := workload.IrregularOrder(); !reflect.DeepEqual(benches, want) {
		t.Fatalf("IrregularBenchmarks() = %v, want %v", benches, want)
	}
	// One benchmark per structural family keeps the grid affordable while
	// still covering the chase, probe and phased generators under every
	// registered engine.
	subset := []string{"ptrchase", "srvmix"}
	o := tinyOptions()
	o.Seeds = 1
	run := func() []IrregularRow {
		s := NewScheduler(2)
		defer s.Close()
		return s.IrregularStudy(subset, o)
	}
	first := run()
	if want := len(subset) * len(prefetch.Names()); len(first) != want {
		t.Fatalf("got %d rows, want %d", len(first), want)
	}
	for _, r := range first {
		if r.Failed != "" {
			t.Fatalf("row %s/%s failed: %s", r.Benchmark, r.Prefetcher, r.Failed)
		}
	}
	if second := run(); !reflect.DeepEqual(second, first) {
		t.Fatalf("repeat rows differ:\n got %+v\nwant %+v", second, first)
	}
}

// TestIrregularStudySharesEngineIndependentPoints verifies the cache
// economics the study is built on: Base and Compression are submitted
// with the request's unmodified options, so an engine sweep over N
// kinds simulates them once — provided the default kind and "" land on
// the same canonical point key. Pin both halves: default-vs-"" aliases,
// and a non-default engine really is a distinct point.
func TestIrregularStudySharesEngineIndependentPoints(t *testing.T) {
	o := tinyOptions()
	def := o
	def.PrefetcherKind = prefetch.DefaultName
	if PointKey("ptrchase", Base, o) != PointKey("ptrchase", Base, def) {
		t.Error("default prefetcher kind and \"\" map to different base points")
	}
	mk := o
	mk.PrefetcherKind = "markov"
	if PointKey("ptrchase", Prefetch, o) == PointKey("ptrchase", Prefetch, mk) {
		t.Error("Prefetch point key ignores PrefetcherKind; engines would share one result")
	}
}

// TestCanonicalOptionsConsultRegistries pins the alias rule for the
// prefetcher: the default name aliases to "" via the registry's
// DefaultName constant (not a string literal), and any other engine
// keeps its name.
func TestCanonicalOptionsConsultRegistries(t *testing.T) {
	o := tinyOptions()
	o.PrefetcherKind = prefetch.DefaultName
	if got := CanonicalOptions(o).PrefetcherKind; got != "" {
		t.Errorf("default prefetcher kind canonicalized to %q, want \"\"", got)
	}
	o.PrefetcherKind = "markov"
	if got := CanonicalOptions(o).PrefetcherKind; got != "markov" {
		t.Errorf("non-default prefetcher kind canonicalized to %q", got)
	}
}

package core

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmpsim/internal/faultinject"
)

// faultFreePoint simulates one point on a private fault-free scheduler,
// the reference result the fault tests compare against.
func faultFreePoint(t *testing.T, bench string, m Mechanisms, o Options) Point {
	t.Helper()
	s := NewScheduler(2)
	defer s.Close()
	p, err := s.Submit(bench, m, o).Wait()
	if err != nil {
		t.Fatalf("fault-free reference run failed: %v", err)
	}
	return p
}

func TestPanicIsolation(t *testing.T) {
	o := tinyOptions()
	in := faultinject.New(faultinject.Rule{
		Kind: faultinject.Panic, Benchmark: "zeus", Label: "base", Seed: 0,
	})
	s := NewScheduler(2)
	defer s.Close()
	s.SetFaultHook(in.Hook)

	var finishErrs int32
	s.SetObserver(func(ev PointEvent) {
		if ev.Kind == PointFinish && ev.Err != nil {
			atomic.AddInt32(&finishErrs, 1)
		}
	})

	fBase := s.Submit("zeus", Base, o)
	fPf := s.Submit("zeus", Prefetch, o)

	_, err := fBase.Wait()
	if err == nil {
		t.Fatal("panicking point did not fail")
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *PointError", err)
	}
	if pe.Reason != ReasonPanic || pe.Seed != 0 {
		t.Fatalf("PointError = %+v", pe)
	}
	if pe.Stack == "" || !strings.Contains(pe.Err.Error(), "injected panic") {
		t.Fatalf("panic evidence missing: stack %d bytes, err %v", len(pe.Stack), pe.Err)
	}

	// The sibling point on the same pool must be untouched — bit-identical
	// to a fault-free scheduler's result.
	got, err := fPf.Wait()
	if err != nil {
		t.Fatalf("unrelated point failed: %v", err)
	}
	if want := faultFreePoint(t, "zeus", Prefetch, o); !reflect.DeepEqual(got, want) {
		t.Fatal("sibling point differs from fault-free run")
	}

	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1 (stats %+v)", st.Failed, st)
	}
	if n := atomic.LoadInt32(&finishErrs); n != 1 {
		t.Fatalf("observer saw %d failed PointFinish events, want 1", n)
	}
}

// TestTransientNoRetryBudget: an injected error fails its point on the
// first attempt. There is no retry budget at all — sim.Run is
// deterministic, so a second attempt would repeat the first failure.
func TestTransientNoRetryBudget(t *testing.T) {
	o := tinyOptions()
	o.Seeds = 1
	in := faultinject.New(faultinject.Rule{
		Kind: faultinject.Error, Benchmark: "zeus", Label: "base", Seed: 0,
		Count: faultinject.Forever,
	})
	s := NewScheduler(1)
	defer s.Close()
	s.SetFaultHook(in.Hook)

	_, err := s.Submit("zeus", Base, o).Wait()
	var pe *PointError
	if !errors.As(err, &pe) || pe.Attempts != 1 || pe.Reason != ReasonError {
		t.Fatalf("want 1-attempt error *PointError, got %v", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("cause not preserved through wrapping: %v", err)
	}
	if fired := in.Fired(); fired[0] != 1 {
		t.Fatalf("hook fired %d times, want 1", fired[0])
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWatchdogTimeout(t *testing.T) {
	o := tinyOptions()
	o.Seeds = 1
	o.PointTimeout = 50 * time.Millisecond
	in := faultinject.New(faultinject.Rule{
		Kind: faultinject.Stall, Benchmark: "zeus", Label: "base", Seed: 0,
		StallFor: 2 * time.Second,
	})
	s := NewScheduler(1)
	defer s.Close()
	s.SetFaultHook(in.Hook)

	start := time.Now()
	_, err := s.Submit("zeus", Base, o).Wait()
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PointError, got %v", err)
	}
	if pe.Reason != ReasonTimeout || !errors.Is(err, ErrPointTimeout) {
		t.Fatalf("PointError = %+v", pe)
	}
	if pe.Attempts != 1 {
		t.Fatalf("timeout was retried: attempts = %d", pe.Attempts)
	}
	if wall := time.Since(start); wall >= 2*time.Second {
		t.Fatalf("watchdog did not abandon the stalled run (waited %v)", wall)
	}
	if got, want := pe.Cell(), "timeout (seed 0)"; got != want {
		t.Fatalf("Cell() = %q, want %q", got, want)
	}
}

func TestPanicNotRetried(t *testing.T) {
	o := tinyOptions()
	o.Seeds = 1
	in := faultinject.New(faultinject.Rule{
		Kind: faultinject.Panic, Benchmark: "zeus", Label: "base", Seed: 0,
		Count: faultinject.Forever,
	})
	s := NewScheduler(1)
	defer s.Close()
	s.SetFaultHook(in.Hook)

	_, err := s.Submit("zeus", Base, o).Wait()
	var pe *PointError
	if !errors.As(err, &pe) || pe.Reason != ReasonPanic {
		t.Fatalf("want panic *PointError, got %v", err)
	}
	if pe.Attempts != 1 {
		t.Fatalf("panic was retried: attempts = %d", pe.Attempts)
	}
	if fired := in.Fired(); fired[0] != 1 {
		t.Fatalf("hook fired %d times, want 1", fired[0])
	}
}

func TestObserverPanicDoesNotKillWorker(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(2)
	defer s.Close()
	s.SetObserver(func(ev PointEvent) {
		panic("observer bug")
	})

	// Both a fresh point and a cached request notify the observer; neither
	// may crash or hang the pool.
	got, err := s.Submit("zeus", Base, o).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("zeus", Base, o).Wait(); err != nil {
		t.Fatal(err)
	}
	if want := faultFreePoint(t, "zeus", Base, o); !reflect.DeepEqual(got, want) {
		t.Fatal("point differs from fault-free run under panicking observer")
	}
	if st := s.Stats(); st.Failed != 0 || st.Cached() != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidSubmissionsCountFailed(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	o := tinyOptions()

	if _, err := s.Submit("nosuch", Base, o).Wait(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	o.Seeds = 0
	if _, err := s.Submit("zeus", Base, o).Wait(); err == nil {
		t.Fatal("Seeds=0 accepted")
	}
	if st := s.Stats(); st.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", st.Failed)
	}
}

// TestNegativePrefetchDepthFails pins that a negative depth override is
// an invalid point, not the paper's default simulated under a point key
// of its own: it fails before any System is built.
func TestNegativePrefetchDepthFails(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	o := tinyOptions()
	o.L2PrefetchDepth = -1
	if _, err := s.Submit("zeus", Prefetch, o).Wait(); err == nil || !strings.Contains(err.Error(), "prefetch depth") {
		t.Fatalf("L2PrefetchDepth -1: err = %v, want the prefetch-depth validation error", err)
	}
	if st := s.Stats(); st.Failed != 1 || st.StorageFresh+st.StorageRecycled != 0 {
		t.Fatalf("stats = %+v, want one failed point and no System built", st)
	}
}

func TestStudyDegradesGracefully(t *testing.T) {
	o := tinyOptions()
	in := faultinject.New(faultinject.Rule{
		Kind: faultinject.Panic, Benchmark: "zeus", Label: "base", Seed: 0,
	})
	s := NewScheduler(2)
	defer s.Close()
	s.SetFaultHook(in.Hook)

	rows := s.CompressionStudy([]string{"zeus", "mgrid"}, o)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Benchmark != "zeus" || rows[0].Failed == "" {
		t.Fatalf("zeus row not marked failed: %+v", rows[0])
	}
	if !strings.Contains(rows[0].Failed, "seed 0") {
		t.Fatalf("failure reason lacks seed identity: %q", rows[0].Failed)
	}
	if rows[1].Benchmark != "mgrid" || rows[1].Failed != "" || rows[1].Ratio == 0 {
		t.Fatalf("healthy row damaged: %+v", rows[1])
	}
}

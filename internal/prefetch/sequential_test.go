package prefetch

import (
	"testing"

	"cmpsim/internal/cache"
)

// sequentialOfDegree builds the sequential engine from the level
// Config that gives it the wanted degree.
func sequentialOfDegree(degree int) Prefetcher {
	return newSequential(Config{StartupDepth: 3 * degree})
}

func TestSequentialMissPrefetchesNextBlocks(t *testing.T) {
	s := sequentialOfDegree(3)
	reqs := s.OnMiss(100)
	if len(reqs) != 3 || reqs[0] != 101 || reqs[2] != 103 {
		t.Fatalf("reqs = %v", reqs)
	}
	if s.Allocations() != 1 {
		t.Fatalf("allocations = %d", s.Allocations())
	}
}

func TestSequentialTaggedExtendsRun(t *testing.T) {
	s := sequentialOfDegree(1)
	s.OnMiss(100)           // prefetched 101
	reqs := s.OnAccess(101) // demand reaches the window
	if len(reqs) != 1 || reqs[0] != 102 {
		t.Fatalf("tagged extension = %v", reqs)
	}
	// The window slides: accessing 102 prefetches 103.
	if reqs = s.OnAccess(102); len(reqs) != 1 || reqs[0] != 103 {
		t.Fatalf("second extension = %v", reqs)
	}
	// Unrelated access does nothing.
	if reqs = s.OnAccess(999); len(reqs) != 0 {
		t.Fatalf("unrelated access prefetched %v", reqs)
	}
}

func TestSequentialCap(t *testing.T) {
	s := sequentialOfDegree(4)
	cap := 2
	s.SetCap(func() int { return cap })
	if reqs := s.OnMiss(100); len(reqs) != 2 {
		t.Fatalf("capped reqs = %v", reqs)
	}
	cap = 0
	if reqs := s.OnMiss(200); len(reqs) != 0 {
		t.Fatalf("disabled reqs = %v", reqs)
	}
}

func TestSequentialTriggerStreamNoOp(t *testing.T) {
	s := sequentialOfDegree(1)
	if reqs := s.TriggerStream(100, 1); len(reqs) != 0 {
		t.Fatalf("trigger = %v", reqs)
	}
}

func TestSequentialStreamStride(t *testing.T) {
	s := sequentialOfDegree(1)
	if s.StreamStride() != 0 {
		t.Fatal("cold prefetcher should report stride 0")
	}
	s.OnMiss(100)
	if s.StreamStride() != 1 {
		t.Fatal("live window should report stride 1")
	}
}

func TestSequentialMissesNonUnitStride(t *testing.T) {
	// The sequential baseline cannot follow stride-3 streams: its
	// prefetches never match the demand addresses.
	s := sequentialOfDegree(2)
	hits := 0
	addr := cache.BlockAddr(1000)
	prefetched := map[cache.BlockAddr]bool{}
	for i := 0; i < 100; i++ {
		for _, a := range s.OnMiss(addr) {
			prefetched[a] = true
		}
		addr += 3
		if prefetched[addr] {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("sequential prefetcher should never catch stride 3, got %d hits", hits)
	}
}

package sim

import (
	"testing"

	"cmpsim/internal/audit"
)

// TestStepAllocFree is the allocation regression gate for the issue
// loop: a warmed system must retire references — both the L1-hit fast
// path and the full staged path — without per-step heap allocations.
// The budget tolerates the rare doubling of the data model's size memo
// and of the in-flight table, nothing per-event.
func TestStepAllocFree(t *testing.T) {
	cfg := smallConfig("zeus").WithMechanisms(true, true, true, true)
	cfg.CheckLevel = audit.Off // auditing forces the slow path and allocates
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.phase(cfg.WarmupInstr)
	targets := make([]uint64, s.fe.count())
	for i := range targets {
		targets[i] = ^uint64(0)
	}
	const steps = 20000
	fastBefore, stepsBefore := s.fastSteps, s.steps
	allocs := testing.AllocsPerRun(1, func() { s.runTo(targets, steps) })
	fast, total := s.fastSteps-fastBefore, s.steps-stepsBefore
	if fast == 0 {
		t.Fatal("fast path never engaged on a warmed all-mechanisms run")
	}
	if fast == total {
		t.Fatal("full path never engaged: the test must cover both paths")
	}
	if perStep := allocs / steps; perStep > 0.02 {
		t.Fatalf("%.4f allocs/step (%.0f over %d steps), want amortized zero",
			perStep, allocs, steps)
	}
}

// BenchmarkSystemRun measures a whole simulation — construction,
// warmup, measurement, drain — end to end; ns/event divides wall time
// by retired references.
func BenchmarkSystemRun(b *testing.B) {
	bench := func(name string, cfg Config) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				s, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s.run()
				events += s.steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
	bench("zeus", smallConfig("zeus").WithMechanisms(true, true, true, true))
	// The irregular frontier: pointer chasing under the markov
	// prefetcher (data-dependent addresses, correlation-table lookups
	// on the miss path).
	chase := smallConfig("ptrchase").WithMechanisms(true, true, true, true)
	chase.PrefetcherKind = "markov"
	bench("ptrchase", chase)
}

package timing

import "testing"

// newPort is a test helper: 2 bytes/cycle → 1 byte costs half a cycle.
func newPort(t *testing.T, bw float64) *Port {
	t.Helper()
	p, err := NewPort(bw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPortLowPriorityQueuesFIFO(t *testing.T) {
	p := newPort(t, 2)
	occ := p.Cost(8) // 4 cycles
	if occ != 4*TicksPerCycle {
		t.Fatalf("cost %v", occ)
	}
	if start := p.Reserve(0, 8, false); start != 0 {
		t.Fatalf("first low start %d", start)
	}
	if start := p.Reserve(0, 8, false); start != occ {
		t.Fatalf("second low start %d, want %d", start, occ)
	}
	if p.server.BusyUntil() != 2*occ || p.WaitTicks() != occ || p.Grants() != 2 {
		t.Fatalf("until=%d wait=%d grants=%d", p.server.BusyUntil(), p.WaitTicks(), p.Grants())
	}
}

// TestPortDemandOvertakesBacklog pins the priority policy: a demand
// message waits for at most one residual low-priority service, not the
// whole backlog.
func TestPortDemandOvertakesBacklog(t *testing.T) {
	p := newPort(t, 1)
	// Queue three low-priority messages of 10 bytes each.
	for i := 0; i < 3; i++ {
		p.Reserve(0, 10, false)
	}
	busyAll := p.server.BusyUntil() // 30 cycles
	// A demand message of 4 bytes at t=0 waits at most its own
	// occupancy (the residual bound), not the 30-cycle backlog.
	start := p.Reserve(0, 4, true)
	if want := p.Cost(4); start != want {
		t.Fatalf("demand start %d, want residual bound %d", start, want)
	}
	if p.server.BusyUntil() != busyAll {
		t.Fatalf("demand overlap must not extend the horizon: %d vs %d", p.server.BusyUntil(), busyAll)
	}
	// Demand traffic still queues behind demand traffic.
	start2 := p.Reserve(0, 4, true)
	if start2 < start+p.Cost(4) {
		t.Fatalf("second demand start %d overlaps first (ends %d)", start2, start+p.Cost(4))
	}
}

func TestPortSameTickSamePriorityCallOrder(t *testing.T) {
	p := newPort(t, 4)
	a := p.Reserve(100, 8, true)
	b := p.Reserve(100, 8, true)
	if a != 100 || b != a+p.Cost(8) {
		t.Fatalf("same-tick demand pair: %d then %d (want call order)", a, b)
	}
}

func TestPortInfinite(t *testing.T) {
	p := newPort(t, 0)
	if !p.Infinite() {
		t.Fatal("not infinite")
	}
	for i := 0; i < 5; i++ {
		if start := p.Reserve(50, 1000, i%2 == 0); start != 50 {
			t.Fatalf("infinite port queued: start %d", start)
		}
	}
	if p.BusyTicks() != 0 || p.WaitTicks() != 0 || p.Grants() != 5 {
		t.Fatalf("infinite stats busy=%d wait=%d grants=%d", p.BusyTicks(), p.WaitTicks(), p.Grants())
	}
}

func TestPortRejectsNegativeBandwidth(t *testing.T) {
	if _, err := NewPort(-2); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestPortCheckInvariants(t *testing.T) {
	p := newPort(t, 2)
	p.Reserve(0, 8, true)
	p.Reserve(0, 8, false)
	if bad := p.CheckInvariants(); bad != "" {
		t.Fatal(bad)
	}
	p.busyDemand = p.server.BusyUntil() + 1
	if p.CheckInvariants() == "" {
		t.Fatal("demand horizon past overall horizon not caught")
	}
}

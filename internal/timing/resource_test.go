package timing

import "testing"

// Len returns the bank count.
func (b *Banks) Len() int { return len(b.banks) }

func TestResourceFIFOReservation(t *testing.T) {
	var r Resource
	if start := r.Acquire(100, 40); start != 100 {
		t.Fatalf("idle acquire started at %d", start)
	}
	// A later request queues behind the first.
	if start := r.Acquire(110, 40); start != 140 {
		t.Fatalf("queued acquire started at %d, want 140", start)
	}
	if r.BusyUntil() != 180 {
		t.Fatalf("busy-until %d, want 180", r.BusyUntil())
	}
	if r.WaitTicks != 30 || r.BusyTicks != 80 || r.Grants != 2 {
		t.Fatalf("stats wait=%d busy=%d grants=%d", r.WaitTicks, r.BusyTicks, r.Grants)
	}
}

// TestResourceSameTickTieBreak pins the tie-break contract: grants
// requested at the identical tick are served strictly in call order,
// which is the simulator's deterministic event order.
func TestResourceSameTickTieBreak(t *testing.T) {
	var r Resource
	starts := make([]Tick, 4)
	for i := range starts {
		starts[i] = r.Acquire(1000, 25)
	}
	for i, want := range []Tick{1000, 1025, 1050, 1075} {
		if starts[i] != want {
			t.Fatalf("same-tick grant %d started at %d, want %d (call order must win)", i, starts[i], want)
		}
	}
}

// TestResourceZeroOccupancy pins zero-occupancy behaviour: the grant
// waits for the current holder but never delays later grants, and an
// unbounded number of them can share one tick.
func TestResourceZeroOccupancy(t *testing.T) {
	var r Resource
	for i := 0; i < 100; i++ {
		if start := r.Acquire(7, 0); start != 7 {
			t.Fatalf("zero-occupancy grant %d started at %d", i, start)
		}
	}
	if r.BusyUntil() != 7 || r.BusyTicks != 0 {
		t.Fatalf("zero-occupancy grants moved the busy horizon: until=%d busy=%d", r.BusyUntil(), r.BusyTicks)
	}
	// Behind a real reservation the zero-occupancy grant still queues.
	r.Acquire(10, 30)
	if start := r.Acquire(15, 0); start != 40 {
		t.Fatalf("zero-occupancy grant jumped the queue: started at %d, want 40", start)
	}
	if r.WaitTicks != 25 {
		t.Fatalf("wait ticks %d, want 25", r.WaitTicks)
	}
}

func TestResourceGrantPanics(t *testing.T) {
	for name, f := range map[string]func(*Resource){
		"negative occupancy": func(r *Resource) { r.Grant(0, 0, -1) },
		"start before request": func(r *Resource) {
			r.Grant(10, 5, 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			var r Resource
			f(&r)
		})
	}
}

func TestResourceCheckInvariants(t *testing.T) {
	var r Resource
	if bad := r.CheckInvariants(); bad != "" {
		t.Fatalf("fresh resource: %s", bad)
	}
	r.Acquire(10, 5)
	if bad := r.CheckInvariants(); bad != "" {
		t.Fatalf("after acquire: %s", bad)
	}
	r.BusyTicks = -1
	if r.CheckInvariants() == "" {
		t.Fatal("negative accumulator not caught")
	}
	var r2 Resource
	r2.busyUntil = 5
	if r2.CheckInvariants() == "" {
		t.Fatal("busy horizon without grants not caught")
	}
}

func TestBanksInterleave(t *testing.T) {
	b, err := NewBanks(3, 40) // non-power-of-two on purpose
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.Occupancy() != 40 {
		t.Fatalf("geometry: len=%d occ=%d", b.Len(), b.Occupancy())
	}
	// Addresses 0 and 3 share bank 0; 1 goes to bank 1.
	if start := b.Acquire(0, 100); start != 100 {
		t.Fatalf("bank 0 first grant at %d", start)
	}
	if start := b.Acquire(1, 100); start != 100 {
		t.Fatalf("bank 1 unaffected by bank 0, started %d", start)
	}
	if start := b.Acquire(3, 100); start != 140 {
		t.Fatalf("conflicting address got %d, want 140", start)
	}
	if b.WaitTicks() != 40 || b.Grants() != 3 {
		t.Fatalf("stats wait=%d grants=%d", b.WaitTicks(), b.Grants())
	}
	if bad := b.CheckInvariants(); bad != "" {
		t.Fatal(bad)
	}
}

func TestBanksRejectBadGeometry(t *testing.T) {
	if _, err := NewBanks(0, 1); err == nil {
		t.Fatal("zero banks accepted")
	}
	if _, err := NewBanks(-4, 1); err == nil {
		t.Fatal("negative banks accepted")
	}
	if _, err := NewBanks(4, -1); err == nil {
		t.Fatal("negative occupancy accepted")
	}
}

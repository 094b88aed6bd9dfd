package timing

import "fmt"

// Resource is one single-server shared resource using busy-until
// reservation: a grant requested at time t starts when the server
// frees, occupies it for a caller-chosen duration, and delays every
// later grant. L2 banks and DRAM banks use it directly (via Banks);
// the memory package's pin channels put their two-priority schedule in
// front of it through Grant.
//
// Tie-break contract: grants are served in call order. Two requests
// arriving at the same tick are ordered by which Acquire ran first —
// the simulator's deterministic event order — never by address or
// priority, so results are bit-reproducible.
type Resource struct {
	busyUntil Tick

	// Stats, maintained by Grant.
	Grants    uint64 // completed reservations
	BusyTicks Tick   // cumulative occupancy
	WaitTicks Tick   // cumulative queueing delay (start - requested)
}

// Acquire reserves the resource for occ ticks starting no earlier than
// at, waiting behind every earlier grant. It returns the tick the
// reservation starts. occ may be zero: a zero-occupancy grant still
// queues behind the current holder but adds no delay for later grants.
func (r *Resource) Acquire(at, occ Tick) (start Tick) {
	start = Max(at, r.busyUntil)
	r.Grant(at, start, occ)
	return start
}

// Grant records a reservation whose start a policy layer has already
// chosen (the memory channels' demand-priority schedule computes starts
// that the plain FIFO rule of Acquire cannot express). It accounts the
// stats and advances the busy horizon to at least start+occ. start must
// not precede the request and occ must be non-negative.
func (r *Resource) Grant(requestedAt, start, occ Tick) {
	if occ < 0 {
		panic(fmt.Sprintf("timing: negative occupancy %v", occ))
	}
	if start < requestedAt {
		panic(fmt.Sprintf("timing: grant starts at %v before its request at %v", start, requestedAt))
	}
	r.Grants++
	r.WaitTicks += start - requestedAt
	r.BusyTicks += occ
	if done := start + occ; done > r.busyUntil {
		r.busyUntil = done
	}
}

// BusyUntil returns the tick at which the resource next frees.
func (r *Resource) BusyUntil() Tick { return r.busyUntil }

// CheckInvariants verifies accumulator sanity (audit support): counters
// must be non-negative and a busy resource must have recorded grants.
// It returns the first violation, or "".
func (r *Resource) CheckInvariants() string {
	switch {
	case r.BusyTicks < 0 || r.WaitTicks < 0 || r.busyUntil < 0:
		return fmt.Sprintf("negative accumulators (busy %v, wait %v, until %v)", r.BusyTicks, r.WaitTicks, r.busyUntil)
	case r.Grants == 0 && (r.BusyTicks != 0 || r.WaitTicks != 0 || r.busyUntil != 0):
		return "non-zero accumulators with zero grants"
	}
	return ""
}

// Banks is a set of identical Resources interleaved by block address:
// request addr is served by bank addr mod len. Any positive bank count
// is supported — non-power-of-two counts simply use the modulo — and
// every bank shares one fixed per-grant occupancy.
type Banks struct {
	banks []Resource
	occ   Tick
}

// NewBanks builds n banks with the given per-grant occupancy.
func NewBanks(n int, occ Tick) (*Banks, error) {
	if n <= 0 {
		return nil, fmt.Errorf("timing: bank count %d must be positive", n)
	}
	if occ < 0 {
		return nil, fmt.Errorf("timing: bank occupancy %v must be non-negative", occ)
	}
	return &Banks{banks: make([]Resource, n), occ: occ}, nil
}

// Occupancy returns the fixed per-grant occupancy.
func (b *Banks) Occupancy() Tick { return b.occ }

// For returns the bank serving addr (modulo interleave).
func (b *Banks) For(addr uint64) *Resource {
	return &b.banks[addr%uint64(len(b.banks))]
}

// Acquire reserves addr's bank for one grant starting no earlier than
// at and returns the grant's start tick.
func (b *Banks) Acquire(addr uint64, at Tick) (start Tick) {
	return b.For(addr).Acquire(at, b.occ)
}

// WaitTicks returns the cumulative queueing delay over all banks.
func (b *Banks) WaitTicks() Tick {
	var w Tick
	for i := range b.banks {
		w += b.banks[i].WaitTicks
	}
	return w
}

// Grants returns the total grant count over all banks.
func (b *Banks) Grants() uint64 {
	var n uint64
	for i := range b.banks {
		n += b.banks[i].Grants
	}
	return n
}

// CheckInvariants sweeps every bank (audit support) and returns the
// first violation, or "".
func (b *Banks) CheckInvariants() string {
	for i := range b.banks {
		if bad := b.banks[i].CheckInvariants(); bad != "" {
			return fmt.Sprintf("bank %d: %s", i, bad)
		}
	}
	return ""
}

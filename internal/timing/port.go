package timing

import "fmt"

// Port is a fixed-bandwidth channel serving variable-length messages
// in two priority classes — the pin-link abstraction. It is a Resource
// with a scheduling policy in front: the underlying single server is a
// plain busy-until Resource (so occupancy, queueing and grant stats
// live in one place), and Reserve computes each message's start tick
// under non-preemptive demand priority before recording it with
// Resource.Grant.
//
// Demand messages wait for the demand backlog plus at most one
// in-progress low-priority transfer (the residual service); low
// priority messages queue behind everything. Within a class, requests
// at the same tick are served in call order (see Resource).
type Port struct {
	costPerByte Tick // per-byte occupancy; 0 = infinite bandwidth
	server      Resource
	busyDemand  Tick // busy-until from demand traffic only
}

// NewPort builds a port with the given bandwidth in bytes per core
// cycle; 0 models an infinite channel (messages are counted but never
// queue and occupy no time).
func NewPort(bytesPerCycle float64) (*Port, error) {
	cost, err := CostPerByte(bytesPerCycle)
	if err != nil {
		return nil, err
	}
	return &Port{costPerByte: cost}, nil
}

// Infinite reports whether the port models unlimited bandwidth.
func (p *Port) Infinite() bool { return p.costPerByte == 0 }

// Cost returns the occupancy of one message of the given size
// (0 on an infinite port).
func (p *Port) Cost(bytes int) Tick {
	if bytes < 0 {
		panic(fmt.Sprintf("timing: negative message size %d", bytes))
	}
	return Tick(bytes) * p.costPerByte
}

// Reserve claims a bandwidth slot for one message of the given size,
// no earlier than at, and returns the slot's start tick. Reservations
// are made in call order — callers reserve when the transfer is
// requested, not when its data is ready — so an idle port is never
// blocked by a far-future reservation.
func (p *Port) Reserve(at Tick, bytes int, demand bool) (start Tick) {
	occ := p.Cost(bytes)
	if p.Infinite() {
		p.server.Grant(at, at, 0)
		return at
	}
	start = at
	if demand {
		if p.busyDemand > start {
			start = p.busyDemand
		}
		if busyAll := p.server.BusyUntil(); busyAll > start {
			// Overtake queued low-priority reservations but not the
			// transfer in progress: wait at most one residual service.
			if residual := Min(at+occ, busyAll); residual > start {
				start = residual
			}
		}
	} else if busyAll := p.server.BusyUntil(); busyAll > start {
		start = busyAll
	}
	p.server.Grant(at, start, occ)
	if demand {
		p.busyDemand = start + occ
	}
	return start
}

// BusyTicks returns the cumulative occupancy.
func (p *Port) BusyTicks() Tick { return p.server.BusyTicks }

// WaitTicks returns the cumulative queueing delay.
func (p *Port) WaitTicks() Tick { return p.server.WaitTicks }

// Grants returns the number of reserved messages.
func (p *Port) Grants() uint64 { return p.server.Grants }

// CheckInvariants verifies server-state sanity (audit support): the
// underlying Resource's accumulators and the priority horizon ordering
// (demand busy-until can never pass the overall busy-until). It
// returns the first violation, or "".
func (p *Port) CheckInvariants() string {
	if bad := p.server.CheckInvariants(); bad != "" {
		return bad
	}
	if p.busyDemand > p.server.BusyUntil() {
		return fmt.Sprintf("demand busy-until %v ahead of overall busy-until %v", p.busyDemand, p.server.BusyUntil())
	}
	return ""
}

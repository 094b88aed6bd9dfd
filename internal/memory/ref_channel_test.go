package memory

import (
	"fmt"

	"cmpsim/internal/timing"
)

// This file keeps the pin channel as it was before it moved into this
// package, as the reference FuzzPinChannel checks channel against call
// for call: refChannel adds the message framing and traffic counts
// over refPort, the two-priority scheduler in front of a
// timing.Resource. Their logic is unchanged; only their names differ,
// and the methods no test calls are left out.

// refPort is a fixed-bandwidth channel serving variable-length messages
// in two priority classes. Demand messages wait for the demand backlog
// plus at most one in-progress low-priority transfer (the residual
// service); low priority messages queue behind everything. Within a
// class, requests at the same tick are served in call order.
type refPort struct {
	costPerByte timing.Tick // per-byte occupancy; 0 = infinite bandwidth
	server      timing.Resource
	busyDemand  timing.Tick // busy-until from demand traffic only
}

// newRefPort builds a port with the given bandwidth in bytes per core
// cycle; 0 models an infinite channel (messages are counted but never
// queue and occupy no time).
func newRefPort(bytesPerCycle float64) (*refPort, error) {
	cost, err := timing.CostPerByte(bytesPerCycle)
	if err != nil {
		return nil, err
	}
	return &refPort{costPerByte: cost}, nil
}

// Infinite reports whether the port models unlimited bandwidth.
func (p *refPort) Infinite() bool { return p.costPerByte == 0 }

// Cost returns the occupancy of one message of the given size
// (0 on an infinite port).
func (p *refPort) Cost(bytes int) timing.Tick {
	if bytes < 0 {
		panic(fmt.Sprintf("timing: negative message size %d", bytes))
	}
	return timing.Tick(bytes) * p.costPerByte
}

// Reserve claims a bandwidth slot for one message of the given size,
// no earlier than at, and returns the slot's start tick.
func (p *refPort) Reserve(at timing.Tick, bytes int, demand bool) (start timing.Tick) {
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
			if residual := timing.Min(at+occ, busyAll); residual > start {
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

// refChannel is a shared fixed-bandwidth link with two priority
// classes: refPort's scheduling plus the message framing (header +
// flits) and traffic accounting.
type refChannel struct {
	port *refPort

	// Stats.
	Messages     uint64
	TotalBytes   uint64
	PayloadFlits uint64
}

// newRefChannel builds a link with the given bandwidth in bytes per
// core cycle; 0 models infinite pin bandwidth.
func newRefChannel(bytesPerCycle float64) *refChannel {
	p, err := newRefPort(bytesPerCycle)
	if err != nil {
		panic(fmt.Sprintf("link: %v", err))
	}
	return &refChannel{port: p}
}

// Occupancy returns the ticks one message of the given payload size
// occupies the channel (0 for an infinite channel).
func (c *refChannel) Occupancy(flits int) timing.Tick {
	return c.port.Cost(headerBytes + flits*flitBytes)
}

// Reserve claims a bandwidth slot for one message, no earlier than at,
// and returns the slot's start tick.
func (c *refChannel) Reserve(at timing.Tick, flits int, demand bool) (slotStart timing.Tick) {
	if flits < 0 {
		panic("link: negative flit count")
	}
	bytes := headerBytes + flits*flitBytes
	c.Messages++
	c.TotalBytes += uint64(bytes)
	c.PayloadFlits += uint64(flits)
	return c.port.Reserve(at, bytes, demand)
}

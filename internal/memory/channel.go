package memory

import (
	"fmt"

	"cmpsim/internal/timing"
)

// headerBytes is the per-message header: command, address and the
// length field for variable-length compressed messages.
const headerBytes = 8

// flitBytes is the payload granule (one 8-byte segment per flit).
const flitBytes = 8

// channel is one set of pins between the CMP and the memory
// controller: a shared link of fixed bandwidth carrying messages of one
// header plus 0-8 payload flits. With link compression a data message
// carries a line in 1-8 flits (its compressed size); without it,
// always 8.
//
// Timing is busy-until reservation on one timing.Resource: a message
// requested at tick t starts when the channel frees, occupies
// bytes × costPerByte ticks, and delays everything behind it — the
// queueing contention that makes prefetching expensive on a CMP. Two
// non-preemptive priority classes share it. A demand-class message
// waits for the demand backlog plus at most one in-progress
// low-priority transfer (the residual service); a low-priority message
// queues behind everything. Within a class, requests at the same tick
// are served in call order. The memory system sends every fetch
// response, demand or prefetch, in the demand class and only
// writebacks at low priority.
type channel struct {
	costPerByte timing.Tick // per-byte occupancy; 0 = infinite pins
	server      timing.Resource
	busyDemand  timing.Tick // busy-until from demand traffic only

	// Traffic: messages, bytes on the wire, payload flits.
	messages, bytes, flits uint64
}

// reserve claims a slot for one message of the given payload, no
// earlier than at, and returns the slot's start and the ticks the
// message occupies the channel. Reservations are made in call order —
// callers reserve when a transfer is requested, not when its data is
// ready — so an idle channel is never blocked by a far-future
// reservation.
//
// On infinite pins (cost 0) a message starts at its own request tick
// and is only counted. Request ticks are not monotone across cores, so
// even zero-length grants would queue there if they took the FIFO
// path.
func (c *channel) reserve(at timing.Tick, flits int, demand bool) (start, occ timing.Tick) {
	bytes := headerBytes + flits*flitBytes
	c.messages++
	c.bytes += uint64(bytes)
	c.flits += uint64(flits)
	occ = timing.Tick(bytes) * c.costPerByte
	start = at
	busyAll := c.server.BusyUntil()
	switch {
	case c.costPerByte == 0:
	case !demand:
		start = timing.Max(at, busyAll)
	default:
		start = timing.Max(at, c.busyDemand)
		if busyAll > start {
			// Overtake queued low-priority reservations but not the
			// transfer in progress: wait at most one residual service.
			start = timing.Max(start, timing.Min(at+occ, busyAll))
		}
		c.busyDemand = start + occ
	}
	c.server.Grant(at, start, occ)
	return start, occ
}

// check verifies flit conservation and reservation-state sanity (audit
// support): every byte on the channel is one header or one payload
// flit, each message holds one grant, the demand horizon never passes
// the overall one, and the Resource's accumulators are sane. It
// returns the first violation, or "".
func (c *channel) check() string {
	if want := c.messages*headerBytes + c.flits*flitBytes; c.bytes != want {
		return fmt.Sprintf("flit conservation: %d bytes on the wire but %d messages + %d payload flits account for %d",
			c.bytes, c.messages, c.flits, want)
	}
	if c.server.Grants != c.messages {
		return fmt.Sprintf("%d grants for %d messages", c.server.Grants, c.messages)
	}
	if c.busyDemand > c.server.BusyUntil() {
		return fmt.Sprintf("demand busy-until %v ahead of overall busy-until %v", c.busyDemand, c.server.BusyUntil())
	}
	return c.server.CheckInvariants()
}

// Package link models the off-chip interconnect between the CMP's
// memory interface and the memory controller: a shared channel of fixed
// pin bandwidth carrying variable-length messages composed of 8-byte
// flits. With link compression enabled, a data message carries a cache
// line in 1-8 flits (its FPC-compressed size); without it, always 8.
// Every message pays a fixed-size header (which carries the length
// field the paper describes).
//
// Timing uses busy-until reservation through timing.Port: a message
// arriving at tick t starts when the channel frees, occupies
// bytes×costPerByte ticks, and delays everything behind it — the
// queueing contention that makes prefetching expensive on a CMP. The
// per-byte cost is quantized to the tick grid once, at NewChannel.
package link

import (
	"fmt"

	"cmpsim/internal/timing"
)

// HeaderBytes is the per-message header: command, address and the
// length field for variable-length compressed messages.
const HeaderBytes = 8

// FlitBytes is the payload granule (one 8-byte segment per flit).
const FlitBytes = 8

// Channel is a shared fixed-bandwidth link with two priority classes.
// Demand-class messages are served with non-preemptive priority: one
// waits for the demand-class backlog plus at most one in-progress
// low-priority transfer (the residual service), while low-priority
// messages queue behind everything. The memory system sends every fetch
// response, demand or prefetch, in the demand class and only writebacks
// at low priority. The scheduling itself lives in timing.Port; Channel
// adds the message framing (header + flits) and traffic accounting.
type Channel struct {
	port *timing.Port

	// Stats.
	Messages     uint64
	TotalBytes   uint64
	PayloadFlits uint64
}

// NewChannel builds a link with the given bandwidth in bytes per core
// cycle (e.g. 4.0 models 20 GB/s at 5 GHz). bytesPerCycle = 0 models
// infinite pin bandwidth, used for the paper's "bandwidth demand"
// metric: bytes are counted but nothing ever queues.
func NewChannel(bytesPerCycle float64) *Channel {
	p, err := timing.NewPort(bytesPerCycle)
	if err != nil {
		panic(fmt.Sprintf("link: %v", err))
	}
	return &Channel{port: p}
}

// Occupancy returns the ticks one message of the given payload size
// occupies the channel (0 for an infinite channel).
func (c *Channel) Occupancy(flits int) timing.Tick {
	return c.port.Cost(HeaderBytes + flits*FlitBytes)
}

// Reserve claims a bandwidth slot for one message, no earlier than at.
// It returns the slot's start tick. Reservations are made in call
// order — callers reserve when the transfer is *requested* (e.g. when a
// fetch reaches the memory controller), not when its data is ready, so
// an idle channel is never blocked by a far-future reservation. A
// demand-class message (demand true) waits only for the demand-class
// backlog plus at most one residual low-priority transfer.
func (c *Channel) Reserve(at timing.Tick, flits int, demand bool) (slotStart timing.Tick) {
	if flits < 0 {
		panic("link: negative flit count")
	}
	bytes := HeaderBytes + flits*FlitBytes
	c.Messages++
	c.TotalBytes += uint64(bytes)
	c.PayloadFlits += uint64(flits)
	return c.port.Reserve(at, bytes, demand)
}

// Send reserves the channel for one demand message starting no earlier
// than now and returns the tick the message has fully crossed.
func (c *Channel) Send(now timing.Tick, flits int) (done timing.Tick) {
	return c.Reserve(now, flits, true) + c.Occupancy(flits)
}

// SendLow is Send for low-priority messages (writebacks).
func (c *Channel) SendLow(now timing.Tick, flits int) (done timing.Tick) {
	return c.Reserve(now, flits, false) + c.Occupancy(flits)
}

// BusyTicks returns the cumulative channel occupancy.
func (c *Channel) BusyTicks() timing.Tick { return c.port.BusyTicks() }

// QueueDelay returns the cumulative ticks messages waited for the
// channel.
func (c *Channel) QueueDelay() timing.Tick { return c.port.WaitTicks() }

// CheckInvariants verifies flit conservation and reservation-state
// sanity (audit support): every byte on the channel is accounted for by
// exactly one header or payload flit (TotalBytes = Messages×HeaderBytes
// + PayloadFlits×FlitBytes), the byte counts match the port's grant
// count, and the port's busy/queueing state is ordered. It returns the
// first violation, or "".
func (c *Channel) CheckInvariants() string {
	if want := c.Messages*HeaderBytes + c.PayloadFlits*FlitBytes; c.TotalBytes != want {
		return fmt.Sprintf("flit conservation: %d bytes on the wire but %d messages + %d payload flits account for %d",
			c.TotalBytes, c.Messages, c.PayloadFlits, want)
	}
	if c.port.Grants() != c.Messages {
		return fmt.Sprintf("port granted %d slots for %d messages", c.port.Grants(), c.Messages)
	}
	return c.port.CheckInvariants()
}

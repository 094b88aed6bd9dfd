// Package memory models the off-chip memory system: the memory
// controller reached over the pin link and a banked DRAM. Lines are
// stored in memory in the form the processor sends across the interface
// — compressed or uncompressed, with a bit encoded in the ECC recording
// which (the paper's simple memory interface that does not change
// effective memory capacity).
//
// Config latencies are expressed in cycles (the paper's units) and
// quantized to the timing package's tick grid once, at New; all
// per-access arithmetic afterwards is integer.
package memory

import (
	"fmt"

	"cmpsim/internal/cache"
	"cmpsim/internal/link"
	"cmpsim/internal/timing"
)

// Config parameterizes the memory system (paper Table 1 defaults via
// DefaultConfig).
type Config struct {
	// LinkBytesPerCycle is the pin bandwidth in bytes per core cycle;
	// 20 GB/s at 5 GHz is 4.0. Zero models infinite bandwidth.
	LinkBytesPerCycle float64
	// DRAMLatency is the access latency in cycles (paper: 400).
	DRAMLatency float64
	// Banks is the number of DRAM banks (block-address interleaved;
	// any positive count works, the interleave is a modulo).
	Banks int
	// BankOccupancy is the cycles a bank stays busy per access.
	BankOccupancy float64
	// LinkCompression transfers lines in their FPC-compressed size.
	LinkCompression bool
}

// DefaultConfig returns the paper's memory parameters: 20 GB/s pins at a
// 5 GHz core clock, 400-cycle DRAM, 16 banks.
func DefaultConfig() Config {
	return Config{
		LinkBytesPerCycle: 4.0,
		DRAMLatency:       400,
		Banks:             16,
		BankOccupancy:     40,
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	if c.LinkBytesPerCycle < 0 {
		return fmt.Errorf("memory: negative link bandwidth")
	}
	if _, err := timing.CostPerByte(c.LinkBytesPerCycle); err != nil {
		return fmt.Errorf("memory: %v", err)
	}
	if c.DRAMLatency <= 0 || c.BankOccupancy < 0 {
		return fmt.Errorf("memory: DRAM latency must be positive")
	}
	if c.Banks <= 0 {
		return fmt.Errorf("memory: bank count must be positive")
	}
	return nil
}

// System is the controller + DRAM + link composite. The pins are
// modeled as two channels at the configured rate: a narrow address
// channel carrying request messages, and the data channel carrying
// fetch responses and writebacks (the direction whose queueing the
// paper's contention results hinge on). Keeping requests off the data
// channel avoids a reservation-model artifact where a request issued
// at time t would queue behind a response slot reserved at t+400.
type System struct {
	cfg     Config
	Addr    *link.Channel
	Data    *link.Channel
	banks   *timing.Banks
	dramLat timing.Tick

	// ECC meta-state: blocks currently stored compressed in memory.
	// Tracked only for accounting/tests; sizes come from the SizeFunc.
	Fetches    uint64
	Writebacks uint64
	// DRAMWaits is the cumulative bank queueing delay on the fetch path
	// only — writeback drains are fire-and-forget and their bank waits
	// never reach a processor, so they do not count toward the paper's
	// DRAM queueing-delay metric.
	DRAMWaits  timing.Tick
	FetchFlits uint64
	WriteFlits uint64
}

// New builds a memory system; it panics on invalid configuration
// (callers that need an error use Config.Validate first).
func New(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	banks, err := timing.NewBanks(cfg.Banks, timing.FromCycles(cfg.BankOccupancy))
	if err != nil {
		panic(fmt.Sprintf("memory: %v", err))
	}
	return &System{
		cfg:     cfg,
		Addr:    link.NewChannel(cfg.LinkBytesPerCycle),
		Data:    link.NewChannel(cfg.LinkBytesPerCycle),
		banks:   banks,
		dramLat: timing.FromCycles(cfg.DRAMLatency),
	}
}

// DataBusyTicks returns the data channel's cumulative occupancy.
func (m *System) DataBusyTicks() timing.Tick { return m.Data.BusyTicks() }

// flitsFor returns the payload flit count for a line of the given
// compressed size under the active link-compression setting.
func (m *System) flitsFor(segs uint8) int {
	if m.cfg.LinkCompression {
		if segs < 1 {
			segs = 1
		}
		if segs > cache.MaxSegs {
			segs = cache.MaxSegs
		}
		return int(segs)
	}
	return cache.MaxSegs
}

// Fetch performs a line read for a demand miss or a prefetch alike: the
// request message crosses the link, DRAM is accessed (bank conflicts
// delay), and the response message returns in the channel's demand
// class. It returns the tick the line is on chip.
func (m *System) Fetch(now timing.Tick, addr cache.BlockAddr, segs uint8) timing.Tick {
	m.Fetches++
	// Request message: header only, on the address channel.
	reqDone := m.Addr.Send(now, 0)
	// DRAM bank access; the wait (if any) is fetch-path queueing.
	start := m.banks.Acquire(uint64(addr), reqDone)
	m.DRAMWaits += start - reqDone
	dataReady := start + m.dramLat
	// Response: the bandwidth slot is claimed in request order (the
	// controller pipelines transfers), but the data cannot leave before
	// the DRAM produces it.
	flits := m.flitsFor(segs)
	m.FetchFlits += uint64(flits)
	slot := m.Data.Reserve(reqDone, flits, true)
	if slot < dataReady {
		slot = dataReady
	}
	return slot + m.Data.Occupancy(flits)
}

// Writeback sends a dirty line to memory, consuming link bandwidth and
// a DRAM bank slot. The caller does not wait for completion; the return
// value is when the write has fully drained (for tests).
func (m *System) Writeback(now timing.Tick, addr cache.BlockAddr, segs uint8) timing.Tick {
	m.Writebacks++
	flits := m.flitsFor(segs)
	m.WriteFlits += uint64(flits)
	done := m.Data.SendLow(now, flits)
	start := m.banks.Acquire(uint64(addr), done)
	return start + m.banks.Occupancy()
}

// CheckInvariants verifies flit conservation across the memory system
// (audit support): both channels internally conserve bytes, every data
// payload flit belongs to exactly one fetch or writeback, requests ride
// the address channel header-only, one request message exists per
// fetch, and the DRAM banks' reservation state is sane. It returns the
// first violation, or "".
func (m *System) CheckInvariants() string {
	if bad := m.Addr.CheckInvariants(); bad != "" {
		return "addr channel: " + bad
	}
	if bad := m.Data.CheckInvariants(); bad != "" {
		return "data channel: " + bad
	}
	if bad := m.banks.CheckInvariants(); bad != "" {
		return "dram banks: " + bad
	}
	if want := m.FetchFlits + m.WriteFlits; m.Data.PayloadFlits != want {
		return fmt.Sprintf("flit conservation: data channel carried %d payload flits but fetches (%d) + writebacks (%d) account for %d",
			m.Data.PayloadFlits, m.FetchFlits, m.WriteFlits, want)
	}
	if m.Addr.PayloadFlits != 0 {
		return fmt.Sprintf("address channel carried %d payload flits (requests are header-only)", m.Addr.PayloadFlits)
	}
	if m.Addr.Messages != m.Fetches {
		return fmt.Sprintf("%d request messages for %d fetches", m.Addr.Messages, m.Fetches)
	}
	if m.Data.Messages != m.Fetches+m.Writebacks {
		return fmt.Sprintf("%d data messages for %d fetches + %d writebacks", m.Data.Messages, m.Fetches, m.Writebacks)
	}
	if m.banks.Grants() != m.Fetches+m.Writebacks {
		return fmt.Sprintf("%d bank grants for %d fetches + %d writebacks", m.banks.Grants(), m.Fetches, m.Writebacks)
	}
	return ""
}

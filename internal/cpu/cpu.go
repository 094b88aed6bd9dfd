// Package cpu models one out-of-order core's timing at the level that
// matters for the paper's memory-system study: instructions retire at a
// base rate (folding in pipeline width and branch behaviour), cache
// misses overlap up to the limits of the reorder buffer and the MSHRs
// (each processor can have up to 16 outstanding memory requests), and
// loads whose consumers are close stall the core until the data returns.
//
// The model is a bounded run-ahead sequencer: the core's clock advances
// as instructions retire; a non-blocking miss is recorded with its
// completion time and the core keeps executing until (a) the MSHRs are
// exhausted, or (b) the oldest outstanding miss is more than a reorder
// buffer's worth of instructions behind — in either case the clock jumps
// to that miss's completion. This reproduces the memory-level
// parallelism differences between commercial workloads (low MLP, many
// dependent loads) and scientific ones (high MLP, strided independent
// loads) that drive the paper's contention results.
//
// All core time is integer: the clock, stall accounting and miss
// completion times are timing.Tick values. BaseCPI converts to a
// per-instruction tick cost once, at New (timing.FromCycles rounding
// contract), so Advance is a pure integer multiply-add.
package cpu

import (
	"fmt"

	"cmpsim/internal/timing"
)

// Config parameterizes one core.
type Config struct {
	// BaseCPI is the cycles per instruction of the core when it never
	// misses beyond the L1s (pipeline width, branch costs folded in).
	// It is quantized to the tick grid once at New.
	BaseCPI float64
	// ROBWindow is the maximum instructions retired past the oldest
	// outstanding miss before the core must wait (paper: 128-entry ROB).
	ROBWindow int
	// MSHRs bounds outstanding memory requests (paper: 16 per core).
	MSHRs int
}

// DefaultConfig returns the paper's core parameters with a base CPI of
// 0.5 (a 4-wide machine sustaining IPC 2 on non-memory work).
func DefaultConfig() Config {
	return Config{BaseCPI: 0.5, ROBWindow: 128, MSHRs: 16}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.BaseCPI <= 0 {
		return fmt.Errorf("cpu: BaseCPI must be positive")
	}
	if timing.FromCycles(c.BaseCPI) <= 0 {
		return fmt.Errorf("cpu: BaseCPI %g below the tick resolution", c.BaseCPI)
	}
	if c.ROBWindow < 1 || c.MSHRs < 1 {
		return fmt.Errorf("cpu: ROBWindow and MSHRs must be at least 1")
	}
	return nil
}

// miss is an outstanding memory request.
type miss struct {
	done    timing.Tick // completion tick
	atInstr uint64      // retire count when issued
}

// Core is one processor's timing state.
type Core struct {
	cfg Config
	cpi timing.Tick // per-instruction retire cost (BaseCPI on the tick grid)

	// Now is the core's local clock.
	Now timing.Tick
	// Instrs is the retired instruction count.
	Instrs uint64

	outstanding []miss // ordered by issue

	// StallTicks accumulates time spent waiting on memory.
	StallTicks timing.Tick
}

// New builds a core; it panics on invalid configuration.
func New(cfg Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Core{cfg: cfg, cpi: timing.FromCycles(cfg.BaseCPI)}
}

// Advance retires n instructions of non-memory work, respecting the
// reorder-buffer bound on run-ahead past outstanding misses.
func (c *Core) Advance(n uint64) {
	c.Now += timing.Tick(n) * c.cpi
	c.Instrs += n
	c.retireCompleted()
	c.enforceROB()
}

// retireCompleted drops outstanding misses whose data has arrived.
func (c *Core) retireCompleted() {
	keep := c.outstanding[:0]
	for _, m := range c.outstanding {
		if m.done > c.Now {
			keep = append(keep, m)
		}
	}
	c.outstanding = keep
}

// waitFor advances the clock to t, accounting the stall.
func (c *Core) waitFor(t timing.Tick) {
	if t > c.Now {
		c.StallTicks += t - c.Now
		c.Now = t
	}
}

// oldest returns the index of the outstanding miss issued earliest.
func (c *Core) oldest() int {
	if len(c.outstanding) == 0 {
		return -1
	}
	return 0 // issue order is append order
}

// IssueMiss records a memory request completing at done. If blocking is
// true (a load with a near dependent consumer) the core stalls until the
// data returns. Otherwise the core continues, subject to the MSHR and
// ROB-window limits. Callers obtain done from the memory-system timing
// model using the core's current Now.
func (c *Core) IssueMiss(done timing.Tick, blocking bool) {
	c.retireCompleted()
	if blocking {
		c.waitFor(done)
		return
	}
	// MSHR limit: wait for the earliest completion to free an entry.
	for len(c.outstanding) >= c.cfg.MSHRs {
		c.waitFor(c.earliestDone())
		c.retireCompleted()
	}
	c.outstanding = append(c.outstanding, miss{done: done, atInstr: c.Instrs})
	c.enforceROB()
}

// earliestDone returns the soonest outstanding completion time.
func (c *Core) earliestDone() timing.Tick {
	e := c.outstanding[0].done
	for _, m := range c.outstanding[1:] {
		if m.done < e {
			e = m.done
		}
	}
	return e
}

// enforceROB stalls the core when the oldest outstanding miss has fallen
// a full reorder-buffer window behind the retire point.
func (c *Core) enforceROB() {
	for {
		i := c.oldest()
		if i == -1 {
			return
		}
		if c.Instrs-c.outstanding[i].atInstr < uint64(c.cfg.ROBWindow) {
			return
		}
		c.waitFor(c.outstanding[i].done)
		c.outstanding = c.outstanding[1:]
		c.retireCompleted()
	}
}

// Drain waits for all outstanding misses (end of simulation).
func (c *Core) Drain() {
	for len(c.outstanding) > 0 {
		c.waitFor(c.earliestDone())
		c.retireCompleted()
	}
}

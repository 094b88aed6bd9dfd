package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"cmpsim/internal/timing"
)

// Outstanding returns the number of in-flight misses.
func (c *Core) Outstanding() int { return len(c.outstanding) }

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.Now == 0 {
		return 0
	}
	return float64(c.Instrs) / c.Now.Cycles()
}

// cy converts whole cycles to ticks for test readability.
func cy(n int64) timing.Tick { return timing.FromIntCycles(n) }

func TestAdvanceUsesBaseCPI(t *testing.T) {
	c := New(Config{BaseCPI: 0.5, ROBWindow: 128, MSHRs: 16})
	c.Advance(100)
	if c.Now != cy(50) || c.Instrs != 100 {
		t.Fatalf("now=%v instrs=%d", c.Now, c.Instrs)
	}
	if got := c.IPC(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("IPC = %f", got)
	}
}

func TestBlockingMissStalls(t *testing.T) {
	c := New(DefaultConfig())
	c.Advance(10) // now = 5 cycles
	c.IssueMiss(cy(405), true)
	if c.Now != cy(405) {
		t.Fatalf("now = %v, want 405cy", c.Now)
	}
	if c.StallTicks != cy(400) {
		t.Fatalf("stall = %v", c.StallTicks)
	}
}

func TestNonBlockingMissOverlaps(t *testing.T) {
	c := New(DefaultConfig())
	c.IssueMiss(cy(400), false)
	if c.Now != 0 || c.Outstanding() != 1 {
		t.Fatalf("now=%v outstanding=%d", c.Now, c.Outstanding())
	}
	c.Advance(20) // 10 cycles; miss still pending
	if c.Outstanding() != 1 {
		t.Fatal("miss should still be outstanding")
	}
	c.Advance(1000) // now 510 cycles: miss completed
	if c.Outstanding() != 0 {
		t.Fatal("miss should have retired")
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	c := New(Config{BaseCPI: 1, ROBWindow: 1 << 20, MSHRs: 2})
	c.IssueMiss(cy(100), false)
	c.IssueMiss(cy(200), false)
	// Third miss must wait for the first to complete (cycle 100).
	c.IssueMiss(cy(300), false)
	if c.Now != cy(100) {
		t.Fatalf("now = %v, want 100cy", c.Now)
	}
	if c.Outstanding() != 2 {
		t.Fatalf("outstanding = %d", c.Outstanding())
	}
}

func TestROBWindowBoundsRunAhead(t *testing.T) {
	c := New(Config{BaseCPI: 1, ROBWindow: 64, MSHRs: 16})
	c.IssueMiss(cy(1000), false)
	// Retire 64 instructions: the ROB fills and the core must wait for
	// the miss at cycle 1000.
	c.Advance(64)
	if c.Now != cy(1000) {
		t.Fatalf("now = %v, want 1000cy (ROB stall)", c.Now)
	}
}

func TestROBReleasesAfterCompletion(t *testing.T) {
	c := New(Config{BaseCPI: 1, ROBWindow: 64, MSHRs: 16})
	c.IssueMiss(cy(10), false)
	c.Advance(64) // now=64 > 10: miss already complete, no stall
	if c.Now != cy(64) {
		t.Fatalf("now = %v, want 64cy", c.Now)
	}
	if c.StallTicks != 0 {
		t.Fatalf("stall = %v", c.StallTicks)
	}
}

func TestDrain(t *testing.T) {
	c := New(DefaultConfig())
	c.IssueMiss(cy(500), false)
	c.IssueMiss(cy(300), false)
	c.Drain()
	if c.Now != cy(500) || c.Outstanding() != 0 {
		t.Fatalf("after drain: now=%v outstanding=%d", c.Now, c.Outstanding())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{BaseCPI: 0, ROBWindow: 128, MSHRs: 16},
		{BaseCPI: 1, ROBWindow: 0, MSHRs: 16},
		{BaseCPI: 1, ROBWindow: 128, MSHRs: 0},
		// Below the tick grid's resolution.
		{BaseCPI: 1.0 / (4 * timing.TicksPerCycle), ROBWindow: 128, MSHRs: 16},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHigherMLPFinishesSooner(t *testing.T) {
	// Two cores issue the same 8 misses of 400 cycles each; the one that
	// can overlap them (MSHRs 16) finishes far sooner than the one that
	// blocks on each (modeled as blocking issues).
	overlap := New(Config{BaseCPI: 1, ROBWindow: 1 << 20, MSHRs: 16})
	serial := New(Config{BaseCPI: 1, ROBWindow: 1 << 20, MSHRs: 16})
	for i := 0; i < 8; i++ {
		overlap.Advance(10)
		overlap.IssueMiss(overlap.Now+cy(400), false)
		serial.Advance(10)
		serial.IssueMiss(serial.Now+cy(400), true)
	}
	overlap.Drain()
	serial.Drain()
	if overlap.Now >= serial.Now/3 {
		t.Fatalf("overlap %v vs serial %v: expected much faster", overlap.Now, serial.Now)
	}
}

// Property: the clock is monotone and stall accounting never exceeds
// elapsed time. Both facts are exact in the integer tick domain.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(Config{BaseCPI: 0.7, ROBWindow: 32, MSHRs: 4})
		var prev timing.Tick
		for _, op := range ops {
			switch op % 3 {
			case 0:
				c.Advance(uint64(op%16) + 1)
			case 1:
				c.IssueMiss(c.Now+cy(int64(op%100)), false)
			case 2:
				c.IssueMiss(c.Now+cy(int64(op%100)), true)
			}
			if c.Now < prev {
				return false
			}
			prev = c.Now
		}
		c.Drain()
		return c.StallTicks <= c.Now
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

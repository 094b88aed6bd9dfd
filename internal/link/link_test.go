package link

import (
	"testing"
	"testing/quick"

	"cmpsim/internal/timing"
)

// cy converts whole cycles to ticks for test readability.
func cy(n int64) timing.Tick { return timing.FromIntCycles(n) }

func TestSendAccountsBytes(t *testing.T) {
	c := NewChannel(4.0)
	c.Send(0, 8) // header + 8 flits = 72 bytes
	if c.TotalBytes != 72 || c.Messages != 1 || c.PayloadFlits != 8 {
		t.Fatalf("stats: %+v", c)
	}
}

func TestSendOccupancy(t *testing.T) {
	c := NewChannel(4.0) // 4 bytes/cycle
	done := c.Send(cy(100), 8)
	if want := cy(100) + timing.FromCycles(72.0/4.0); done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestQueueingDelaysSecondMessage(t *testing.T) {
	c := NewChannel(4.0)
	first := c.Send(0, 8) // occupies until cycle 18
	done := c.Send(0, 8)  // must wait
	if done != first+cy(18) {
		t.Fatalf("second done = %v, want %v", done, first+cy(18))
	}
	if c.QueueDelay() != first {
		t.Fatalf("queue delay = %v, want %v", c.QueueDelay(), first)
	}
}

func TestInfiniteChannelNeverQueues(t *testing.T) {
	c := NewChannel(0)
	if !c.port.Infinite() {
		t.Fatal("channel should be infinite")
	}
	for i := 0; i < 100; i++ {
		if done := c.Send(cy(5), 8); done != cy(5) {
			t.Fatalf("infinite send done = %v", done)
		}
	}
	if c.QueueDelay() != 0 || c.TotalBytes != 7200 {
		t.Fatalf("stats: %+v", c)
	}
}

func TestCompressedMessageIsCheaper(t *testing.T) {
	c := NewChannel(4.0)
	full := c.Send(0, 8)
	c2 := NewChannel(4.0)
	small := c2.Send(0, 2)
	if small >= full {
		t.Fatalf("2-flit message (%v) should be faster than 8-flit (%v)", small, full)
	}
}

func TestNegativeFlitsPanics(t *testing.T) {
	c := NewChannel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative flits should panic")
		}
	}()
	c.Send(0, -1)
}

func TestNegativeBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative bandwidth should panic")
		}
	}()
	NewChannel(-1)
}

// Property: completion times are monotone in submission order and never
// precede the submission time plus occupancy. Exact in the tick domain.
func TestSendMonotoneProperty(t *testing.T) {
	f := func(times []uint16, flitsRaw []uint8) bool {
		c := NewChannel(2.5)
		var prev, now timing.Tick
		for i, dt := range times {
			now += cy(int64(dt % 100))
			flits := 0
			if i < len(flitsRaw) {
				flits = int(flitsRaw[i] % 9)
			}
			done := c.Send(now, flits)
			if done < now+c.Occupancy(flits) {
				return false
			}
			if done < prev {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package memory

import (
	"testing"
	"testing/quick"

	"cmpsim/internal/timing"
)

// testChannel builds a channel of the given bandwidth in bytes per
// cycle, as New does (0 = infinite pins).
func testChannel(t *testing.T, bytesPerCycle float64) *channel {
	t.Helper()
	cost, err := timing.CostPerByte(bytesPerCycle)
	if err != nil {
		t.Fatal(err)
	}
	return &channel{costPerByte: cost}
}

// send reserves a demand-class message and returns the tick it has
// fully crossed.
func send(c *channel, at timing.Tick, flits int) timing.Tick {
	start, occ := c.reserve(at, flits, true)
	return start + occ
}

func TestChannelAccountsBytes(t *testing.T) {
	c := testChannel(t, 4)
	send(c, 0, 8) // header + 8 flits = 72 bytes
	if c.bytes != 72 || c.messages != 1 || c.flits != 8 {
		t.Fatalf("traffic: %+v", c)
	}
}

func TestChannelOccupancy(t *testing.T) {
	c := testChannel(t, 4) // 4 bytes/cycle
	done := send(c, cy(100), 8)
	if want := cy(100) + timing.FromCycles(72.0/4.0); done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestQueueingDelaysSecondMessage(t *testing.T) {
	c := testChannel(t, 4)
	first := send(c, 0, 8) // occupies until cycle 18
	done := send(c, 0, 8)  // must wait
	if done != first+cy(18) {
		t.Fatalf("second done = %v, want %v", done, first+cy(18))
	}
	if c.server.WaitTicks != first {
		t.Fatalf("queue delay = %v, want %v", c.server.WaitTicks, first)
	}
}

func TestInfiniteChannelNeverQueues(t *testing.T) {
	c := testChannel(t, 0)
	for i := 0; i < 100; i++ {
		if start, occ := c.reserve(cy(5), 8, i%2 == 0); start != cy(5) || occ != 0 {
			t.Fatalf("infinite message %d: start %v, occupancy %v", i, start, occ)
		}
	}
	if c.server.BusyTicks != 0 || c.server.WaitTicks != 0 || c.server.Grants != 100 || c.bytes != 7200 {
		t.Fatalf("infinite stats busy=%v wait=%v grants=%d bytes=%d", c.server.BusyTicks, c.server.WaitTicks, c.server.Grants, c.bytes)
	}
}

func TestCompressedMessageIsCheaper(t *testing.T) {
	full := send(testChannel(t, 4), 0, 8)
	small := send(testChannel(t, 4), 0, 2)
	if small >= full {
		t.Fatalf("2-flit message (%v) should be faster than 8-flit (%v)", small, full)
	}
}

// Property: completion times are monotone in submission order and never
// precede the submission time plus occupancy. Exact in the tick domain.
func TestChannelMonotoneProperty(t *testing.T) {
	f := func(times []uint16, flitsRaw []uint8) bool {
		c := testChannel(t, 2.5)
		var prev, now timing.Tick
		for i, dt := range times {
			now += cy(int64(dt % 100))
			flits := 0
			if i < len(flitsRaw) {
				flits = int(flitsRaw[i] % 9)
			}
			start, occ := c.reserve(now, flits, true)
			done := start + occ
			if done < now+occ || done < prev {
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

func TestChannelLowPriorityQueuesFIFO(t *testing.T) {
	c := testChannel(t, 2) // a header-only message: 8 bytes, 4 cycles
	if start, occ := c.reserve(0, 0, false); start != 0 || occ != cy(4) {
		t.Fatalf("first low start %v, occupancy %v", start, occ)
	}
	if start, _ := c.reserve(0, 0, false); start != cy(4) {
		t.Fatalf("second low start %v, want %v", start, cy(4))
	}
	if c.server.BusyUntil() != cy(8) || c.server.WaitTicks != cy(4) || c.server.Grants != 2 {
		t.Fatalf("until=%v wait=%v grants=%d", c.server.BusyUntil(), c.server.WaitTicks, c.server.Grants)
	}
}

// TestChannelDemandOvertakesBacklog pins the priority policy: a demand
// message waits for at most one residual low-priority service, not the
// whole backlog.
func TestChannelDemandOvertakesBacklog(t *testing.T) {
	c := testChannel(t, 1)
	// Queue three low-priority messages of 16 bytes each.
	for i := 0; i < 3; i++ {
		c.reserve(0, 1, false)
	}
	busyAll := c.server.BusyUntil() // 48 cycles
	// A header-only demand message at t=0 waits at most its own
	// occupancy (the residual bound), not the 48-cycle backlog.
	start, occ := c.reserve(0, 0, true)
	if start != occ {
		t.Fatalf("demand start %v, want residual bound %v", start, occ)
	}
	if c.server.BusyUntil() != busyAll {
		t.Fatalf("demand overlap must not extend the horizon: %v vs %v", c.server.BusyUntil(), busyAll)
	}
	// Demand traffic still queues behind demand traffic.
	if start2, _ := c.reserve(0, 0, true); start2 < start+occ {
		t.Fatalf("second demand start %v overlaps first (ends %v)", start2, start+occ)
	}
}

func TestChannelSameTickCallOrder(t *testing.T) {
	c := testChannel(t, 4)
	a, occ := c.reserve(100, 0, true)
	b, _ := c.reserve(100, 0, true)
	if a != 100 || b != a+occ {
		t.Fatalf("same-tick demand pair: %v then %v (want call order)", a, b)
	}
}

func TestChannelCheck(t *testing.T) {
	c := testChannel(t, 2)
	c.reserve(0, 8, true)
	c.reserve(0, 8, false)
	if bad := c.check(); bad != "" {
		t.Fatal(bad)
	}
	for name, corrupt := range map[string]func(*channel){
		"lost byte":                   func(c *channel) { c.bytes-- },
		"message without a grant":     func(c *channel) { c.messages++; c.bytes += headerBytes },
		"demand horizon past overall": func(c *channel) { c.busyDemand = c.server.BusyUntil() + 1 },
	} {
		bad := *c
		corrupt(&bad)
		if bad.check() == "" {
			t.Errorf("%s not caught", name)
		}
	}
}

// TestChannelDD1Oracle checks each class alone against a D/D/1 queue:
// messages of S ticks arrive every T ticks. When S ≤ T no message
// waits; when S > T the k-th waits exactly (k−1)(S−T).
func TestChannelDD1Oracle(t *testing.T) {
	for _, demand := range []bool{true, false} {
		for _, tc := range []struct {
			flits int
			gap   timing.Tick
		}{
			{8, cy(18)}, // S = T = 18 cycles at 4 bytes/cycle
			{8, cy(30)},
			{8, cy(5)},
			{2, cy(5)}, // S = 6 cycles
			{0, 1},     // S = 2 cycles, one tick apart
		} {
			c := testChannel(t, 4)
			for k := 1; k <= 20; k++ {
				at := timing.Tick(k-1) * tc.gap
				start, occ := c.reserve(at, tc.flits, demand)
				var want timing.Tick
				if occ > tc.gap {
					want = timing.Tick(k-1) * (occ - tc.gap)
				}
				if start-at != want {
					t.Fatalf("demand %v, %d flits every %v: message %d waits %v, want %v",
						demand, tc.flits, tc.gap, k, start-at, want)
				}
			}
		}
	}
}

// TestInfinitePinsDecreasingTicks: on infinite pins each message starts
// at its own request tick, also when request ticks run backwards, as
// they do across cores.
func TestInfinitePinsDecreasingTicks(t *testing.T) {
	c := testChannel(t, 0)
	for i, at := range []timing.Tick{cy(900), cy(500), cy(500), cy(20), cy(700), 3, 0} {
		if start, occ := c.reserve(at, i, i%2 == 0); start != at || occ != 0 {
			t.Fatalf("message %d requested at %v: start %v, occupancy %v", i, at, start, occ)
		}
	}
	if c.server.WaitTicks != 0 || c.server.BusyTicks != 0 {
		t.Fatalf("infinite pins waited %v, busy %v", c.server.WaitTicks, c.server.BusyTicks)
	}
	if bad := c.check(); bad != "" {
		t.Fatal(bad)
	}
}

// pinState is what FuzzPinChannel compares after each call.
type pinState struct {
	start, done, busy, wait        timing.Tick
	grants, messages, bytes, flits uint64
}

// FuzzPinChannel drives channel and the reference it replaced
// (ref_channel_test.go) with the same calls: a bandwidth, infinite pins
// included, then per call a request tick (often earlier than the
// previous one), 0-8 payload flits and a class. After every call both
// must report the same slot, done tick, busy, wait and grant totals and
// traffic counts, and check must pass.
func FuzzPinChannel(f *testing.F) {
	// Two bytes a call: the request tick's step in signed quarter
	// cycles, then the flits (low nibble mod 9) and the class (bit 4
	// set: low priority).
	f.Add(uint8(0), []byte{100, 8, 0xF0, 0x18, 0xF0, 3, 10, 0x10, 0x80, 1})
	f.Add(uint8(1), []byte{0, 0x18, 0, 0x18, 0, 0x18, 0, 8, 0, 0, 4, 2, 0xFC, 0x11, 0xFE, 8})
	f.Add(uint8(2), []byte{40, 8, 0xD8, 0x18, 0xD8, 1, 0x7F, 0x14, 0x81, 5, 3, 8})
	f.Add(uint8(3), []byte{0, 8, 1, 0x18, 1, 8, 0xFF, 0x10, 0xFF, 0})
	f.Fuzz(func(t *testing.T, bw uint8, calls []byte) {
		bytesPerCycle := []float64{0, 4, 1, 0.25, 2.5, 64}[int(bw)%6]
		c, ref := testChannel(t, bytesPerCycle), newRefChannel(bytesPerCycle)
		var at timing.Tick
		for i := 0; i+1 < len(calls); i += 2 {
			at = timing.Max(0, at+timing.Tick(int8(calls[i]))*timing.TicksPerCycle/4)
			flits, demand := int(calls[i+1]&15)%9, calls[i+1]&16 == 0
			start, occ := c.reserve(at, flits, demand)
			got := pinState{start, start + occ, c.server.BusyTicks, c.server.WaitTicks,
				c.server.Grants, c.messages, c.bytes, c.flits}
			refStart := ref.Reserve(at, flits, demand)
			rs := &ref.port.server
			want := pinState{refStart, refStart + ref.Occupancy(flits), rs.BusyTicks, rs.WaitTicks,
				rs.Grants, ref.Messages, ref.TotalBytes, ref.PayloadFlits}
			if got != want {
				t.Fatalf("call %d (at %v, %d flits, demand %v): got %+v, reference %+v", i/2, at, flits, demand, got, want)
			}
			if bad := c.check(); bad != "" {
				t.Fatalf("call %d: %s", i/2, bad)
			}
		}
	})
}

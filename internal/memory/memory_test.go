package memory

import (
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/timing"
)

// cy converts whole cycles to ticks for test readability.
func cy(n int64) timing.Tick { return timing.FromIntCycles(n) }

func TestFetchLatencyUncontended(t *testing.T) {
	m := New(DefaultConfig())
	done := m.Fetch(0, 0, cache.MaxSegs)
	// Request: 8 B / 4 Bpc = 2 cycles. DRAM: 400. Response: 72 B / 4 = 18.
	want := cy(2 + 400 + 18)
	if done != want {
		t.Fatalf("fetch done = %v, want %v", done, want)
	}
}

func TestLinkCompressionShortensResponse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkCompression = true
	m := New(cfg)
	done := m.Fetch(0, 0, 2)
	// Response: header + 2 flits = 24 B / 4 = 6 cycles.
	want := cy(2 + 400 + 6)
	if done != want {
		t.Fatalf("compressed fetch = %v, want %v", done, want)
	}
	if m.FetchFlits != 2 {
		t.Fatalf("fetch flits = %d", m.FetchFlits)
	}
}

func TestNoLinkCompressionAlwaysEightFlits(t *testing.T) {
	m := New(DefaultConfig())
	m.Fetch(0, 0, 2)
	if m.FetchFlits != 8 {
		t.Fatalf("fetch flits = %d, want 8", m.FetchFlits)
	}
}

func TestBankConflictDelays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkBytesPerCycle = 0 // isolate DRAM behaviour
	m := New(cfg)
	occ := timing.FromCycles(cfg.BankOccupancy)
	// Same bank (addr 0 and addr 16 with 16 banks).
	first := m.Fetch(0, 0, 8)
	second := m.Fetch(0, 16, 8)
	if second != first+occ {
		t.Fatalf("second fetch = %v, want %v", second, first+occ)
	}
	if m.DRAMWaits != occ {
		t.Fatalf("DRAM waits = %v", m.DRAMWaits)
	}
	// Different bank: no delay.
	third := m.Fetch(0, 1, 8)
	if third != first {
		t.Fatalf("third fetch (other bank) = %v, want %v", third, first)
	}
}

func TestWritebackConsumesLink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkCompression = true
	m := New(cfg)
	m.Writeback(0, 5, 3)
	if m.Writebacks != 1 || m.WriteFlits != 3 {
		t.Fatalf("writeback stats: %+v", m)
	}
	if m.data.bytes != 8+3*8 {
		t.Fatalf("data bytes = %d", m.data.bytes)
	}
}

func TestWritebackBankWaitNotCountedAsDRAMWait(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkBytesPerCycle = 0 // isolate DRAM behaviour
	m := New(cfg)
	m.Fetch(0, 0, 8)      // bank 0 busy until 40
	m.Writeback(0, 16, 8) // same bank: waits, but fire-and-forget
	if m.DRAMWaits != 0 {
		t.Fatalf("writeback bank wait leaked into DRAMWaits: %v", m.DRAMWaits)
	}
}

func TestWritebackDelaysSubsequentFetchResponse(t *testing.T) {
	m := New(DefaultConfig())
	m.Writeback(0, 5, 8) // occupies the data channel for 18 cycles
	done := m.Fetch(0, 16, 8)
	// The request uses the address channel (no wait), but the response
	// shares the data channel; here DRAM latency dwarfs the writeback,
	// so there is no queueing: 2 + 400 + 18.
	want := cy(2 + 400 + 18)
	if done != want {
		t.Fatalf("fetch after writeback = %v, want %v", done, want)
	}
	// A second immediate fetch to another bank queues its response
	// behind the first on the data channel.
	done2 := m.Fetch(0, 17, 8)
	if done2 <= done {
		t.Fatalf("second response should queue: %v vs %v", done2, done)
	}
}

func TestInfiniteBandwidthMeasurementMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkBytesPerCycle = 0
	m := New(cfg)
	done := m.Fetch(0, 7, 8)
	if done != timing.FromCycles(cfg.DRAMLatency) {
		t.Fatalf("infinite-bw fetch = %v, want %gcy", done, cfg.DRAMLatency)
	}
	// Bytes are still counted for the bandwidth-demand metric.
	if m.data.bytes == 0 {
		t.Fatal("bytes must be accounted in measurement mode")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []struct {
		cfg  Config
		want string // the error names the field at fault
	}{
		{Config{LinkBytesPerCycle: -1, DRAMLatency: 400, Banks: 16}, "memory: negative link bandwidth"},
		{Config{LinkBytesPerCycle: 4, DRAMLatency: 0, Banks: 16}, "memory: DRAM latency must be positive"},
		{Config{LinkBytesPerCycle: 4, DRAMLatency: 400, Banks: 16, BankOccupancy: -1}, "memory: bank occupancy must be non-negative"},
		{Config{LinkBytesPerCycle: 4, DRAMLatency: 400, Banks: 0}, "memory: bank count must be positive"},
	}
	for i, tc := range bad {
		if err := tc.cfg.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("config %d: Validate() = %v, want %q", i, err, tc.want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic in New", i)
				}
			}()
			New(tc.cfg)
		}()
	}
}

func TestNonPowerOfTwoBanks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Banks = 3
	cfg.LinkBytesPerCycle = 0
	m := New(cfg)
	occ := timing.FromCycles(cfg.BankOccupancy)
	// Addresses 0 and 3 collide under modulo-3 interleave; 1 does not.
	first := m.Fetch(0, 0, 8)
	if other := m.Fetch(0, 1, 8); other != first {
		t.Fatalf("bank 1 fetch = %v, want %v", other, first)
	}
	if conflict := m.Fetch(0, 3, 8); conflict != first+occ {
		t.Fatalf("conflicting fetch = %v, want %v", conflict, first+occ)
	}
}

func TestFlitClamping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkCompression = true
	m := New(cfg)
	m.Fetch(0, 0, 0)  // clamped to 1
	m.Fetch(0, 1, 99) // clamped to 8
	if m.FetchFlits != 9 {
		t.Fatalf("fetch flits = %d, want 9", m.FetchFlits)
	}
}

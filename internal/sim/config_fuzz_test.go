package sim

import (
	"errors"
	"testing"

	"cmpsim/internal/audit"
	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/workload"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// pick returns one of choices, chosen by the next byte.
func pick[T any](b *fuzzBytes, choices ...T) T {
	return choices[int(b.next())%len(choices)]
}

// fuzzConfig builds a small Config from a fuzz input: at most 4 cores,
// a few thousand instructions per core, caches of at most 512 KB, and
// every field the simulator reads drawn from a range that is mostly
// valid (set counts are powers of two) but also holds values Validate
// must reject. The all-zero input is a valid config. The auditor runs
// at invariants level.
func fuzzConfig(in []byte) Config {
	b := fuzzBytes(in)
	cfg := NewConfig(pick(&b, workload.Names()...))
	cfg.Cores = 1 + int(b.next()%4)
	cfg.Seed = int64(int8(b.next()))
	cfg.WarmupInstr = uint64(b.next()) * 16
	cfg.MeasureInstr = uint64(b.next()) * 16
	if cfg.MeasureInstr == 0 {
		cfg.MeasureInstr = 1
	}
	mech := b.next()
	pf := mech&4 != 0
	cfg = cfg.WithMechanisms(mech&1 != 0, mech&2 != 0, pf || mech&128 != 0, mech&8 != 0 && (pf || mech&64 != 0))
	cfg.CollectMissProfile = mech&16 != 0
	cfg.L1PrefetchDepth = int(int8(b.next()))
	cfg.L2PrefetchDepth = int(int8(b.next()))
	cfg.PrefetcherKind = pick(&b, append([]string{""}, prefetch.Names()...)...)
	cfg.RefSource = pick(&b, append([]string{""}, workload.SourceNames()...)...)
	cfg.Codec = pick(&b, append([]string{""}, codec.Names()...)...)

	// Geometry: powers of two, with a rare odd value.
	pow2 := func(max int) int {
		v := b.next()
		if v == 255 {
			return 3
		}
		return 1 << (int(v) % (max + 1))
	}
	cfg.L1Ways = pow2(5)
	cfg.L1Bytes = cache.LineBytes * cfg.L1Ways * pow2(6)
	cfg.L2Ways = pow2(5)
	cfg.L2TagsPerSet = 1 + int(b.next()%40)
	cfg.L2SegsPerSet = 8 * pow2(5)
	cfg.L2Bytes = 1024 * pow2(9)
	cfg.L2Banks = 1 + int(b.next()%16)
	cfg.UncompressedVictimTags = int(b.next()%17) - int(b.next()/255)

	// Latencies: mostly valid, the last choice of each list is not.
	cfg.L1HitCycles = pick[float64](&b, 3, 1, 0.5, 2.25, 7, 0)
	cfg.L2HitCycles = pick[float64](&b, 15, 1, 0.5, 30, 0)
	cfg.DecompressionCycles = pick[float64](&b, 5, 0, 1, 8, 0.25, 1.0/3)
	cfg.L2BankOccupancy = pick[float64](&b, 4, 0, 1.5, 40, -1)
	cfg.Memory.LinkBytesPerCycle = pick[float64](&b, 4, 0, 0.25, 1, 64, -1)
	cfg.Memory.DRAMLatency = pick[float64](&b, 400, 1, 100, 0.5, 0)
	cfg.Memory.Banks = 1 + int(b.next()%32)
	cfg.Memory.BankOccupancy = pick[float64](&b, 40, 0, 1, 400, -1)
	cfg.CPU.ROBWindow = 1 + int(b.next())
	cfg.CPU.MSHRs = 1 + int(b.next()%32)
	cfg.ClockGHz = pick[float64](&b, 5, 1, 0.5)
	cfg.TelemetryInterval = uint64(b.next()) * 64
	cfg.CheckInterval = uint64(b.next()) * 16
	cfg.CheckLevel = audit.Invariants
	return cfg
}

// FuzzConfig runs every small Config that Validate accepts for a tiny
// window at CheckLevel invariants: it must finish without a panic or an
// audit violation, so Validate is the whole contract of what runs.
func FuzzConfig(f *testing.F) {
	// Bytes in fuzzConfig's order: benchmark, cores, seed, warmup,
	// measure, mechanism bits, L1 and L2 prefetch depth, prefetcher,
	// reference source, codec, then geometry, latencies and the rest.
	f.Add([]byte{}) // one core, one instruction, defaults elsewhere
	// Four cores, every mechanism, a 1 KB L2 under 2 KB L1s (inclusion
	// evicts constantly), deep startup prefetching.
	f.Add([]byte{0, 3, 1, 10, 20, 0x0F, 100, 120, 0, 0, 0, 2, 3, 3, 8, 3, 0, 1, 4})
	// Adaptive Markov prefetching on an irregular source with link
	// compression: a plain L2 whose victim tags feed the harmful
	// prefetch test, the miss profile, telemetry and a short audit
	// cadence.
	f.Add([]byte{9, 1, 7, 4, 40, 0x1E, 3, 3, 4, 2, 4, 1, 6, 4, 1, 0, 5, 15, 16, 0,
		2, 3, 4, 2, 2, 1, 31, 3, 255, 31, 2, 1, 2})
	// Cache compression with one tag per set under prefetching,
	// infinite pins, the miss profile and sub-cycle latencies.
	f.Add([]byte{4, 2, 255, 60, 60, 0x15, 1, 1, 1, 1, 3, 0, 0, 0, 0, 5, 9, 0, 0, 0,
		2, 2, 4, 2, 1, 3, 0, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg := fuzzConfig(in)
		if cfg.Validate() != nil {
			return
		}
		_, err := Run(cfg)
		var v *audit.Violation
		if errors.As(err, &v) {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		if err != nil {
			t.Fatalf("config %+v passed Validate but Run failed: %v", cfg, err)
		}
	})
}

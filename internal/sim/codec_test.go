package sim

import (
	"reflect"
	"testing"

	"cmpsim/internal/audit"
	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
)

// TestGeometryMatchesCacheConstants is the drift guard for the
// calibration-geometry coupling: sim builds the compressed L2 from
// Config, internal/workload's calibration packs its samples from the
// cache package's constants, and the two must describe the same sets
// or CalibrateKnobCodec targets a cache that is never simulated.
func TestGeometryMatchesCacheConstants(t *testing.T) {
	cfg := NewConfig("zeus")
	if cfg.L2TagsPerSet != cache.DefaultTagsPerSet {
		t.Errorf("NewConfig L2TagsPerSet = %d, cache.DefaultTagsPerSet = %d",
			cfg.L2TagsPerSet, cache.DefaultTagsPerSet)
	}
	if cfg.L2SegsPerSet != cache.DefaultSegsPerSet {
		t.Errorf("NewConfig L2SegsPerSet = %d, cache.DefaultSegsPerSet = %d",
			cfg.L2SegsPerSet, cache.DefaultSegsPerSet)
	}
	if cache.DefaultSegsPerSet != cache.DefaultLinesPerSet*cache.MaxSegs {
		t.Error("segment budget is not LinesPerSet lines of data area")
	}
}

// codecTestConfig is a short full-stack run with compression on.
func codecTestConfig(name string) Config {
	cfg := NewConfig("zeus")
	cfg.WarmupInstr = 20_000
	cfg.MeasureInstr = 30_000
	cfg.Codec = name
	return cfg.WithMechanisms(true, true, true, false)
}

// TestCodecSelectionRuns drives every registered codec through a short
// compressed run under the Shadow audit, which encode/decode-roundtrips
// each compressed fill and writeback with the selected codec — a
// non-FPC codec wired in anywhere short of everywhere would trip the
// shadow-fpc invariant immediately.
func TestCodecSelectionRuns(t *testing.T) {
	for _, name := range codec.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := codecTestConfig(name)
			cfg.CheckLevel = audit.Shadow
			m, err := Run(cfg)
			if err != nil {
				t.Fatalf("run with codec %s: %v", name, err)
			}
			if m.CompressionRatio <= 0 {
				t.Errorf("codec %s: no effective-size samples landed", name)
			}
		})
	}
}

// TestDefaultCodecIsFPC pins the compatibility guarantee: Codec "" and
// Codec "fpc" are the same simulation, bit for bit.
func TestDefaultCodecIsFPC(t *testing.T) {
	a, err := Run(codecTestConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(codecTestConfig("fpc"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Codec \"\" and \"fpc\" metrics differ")
	}
}

// TestFractionalDecompressionLatency covers the exact-tick contract:
// 2.5 cycles is representable and must validate and run; the
// TestConfigValidation table covers the rejection side.
func TestFractionalDecompressionLatency(t *testing.T) {
	cfg := codecTestConfig("")
	cfg.DecompressionCycles = 2.5
	if err := cfg.Validate(); err != nil {
		t.Fatalf("2.5-cycle decompression rejected: %v", err)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

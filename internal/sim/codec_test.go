package sim

import (
	"reflect"
	"testing"

	"cmpsim/internal/audit"
	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/workload"
)

// TestGeometryMatchesCacheConstants is the drift guard for the
// calibration-geometry coupling: sim builds the compressed L2 from
// Config, workload.PackedRatio packs calibration samples from the
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
	// The ratio estimators saturate at the tag-limit bound derived from
	// the same constants.
	if got := workload.RatioForMeanSegs(1); got != cache.MaxEffectiveRatio {
		t.Errorf("RatioForMeanSegs(1) = %g, want %g", got, cache.MaxEffectiveRatio)
	}
	if got := workload.RatioForMeanSegs(float64(cache.MaxSegs)); got != 1 {
		t.Errorf("RatioForMeanSegs(MaxSegs) = %g, want 1", got)
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

// TestCodecRatioOrdering checks the codec choice actually reaches the
// sizing path: on a compressible commercial profile, the single-pattern
// zca codec must achieve no more packed effective size than FPC, which
// the data model's value mixture is built around; fpc calibrated at the
// profile's target must land near it.
func TestCodecRatioOrdering(t *testing.T) {
	prof := workload.MustByName("zeus")
	fpcR := workload.NewDataModelCodec(prof, 1, codec.MustByName("fpc")).PackedRatio(2048)
	zcaR := workload.NewDataModelCodec(prof, 1, codec.MustByName("zca")).PackedRatio(2048)
	if zcaR > fpcR {
		t.Errorf("zca packed ratio %g exceeds fpc %g on an FPC-patterned value stream", zcaR, fpcR)
	}
	if fpcR < prof.TargetRatio-0.1 {
		t.Errorf("fpc packed ratio %g misses the calibration target %g", fpcR, prof.TargetRatio)
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

package sim

import (
	"errors"
	"reflect"
	"testing"

	"cmpsim/internal/audit"
)

// StateFaultLevel returns the minimum CheckLevel that detects the named
// fault, or Off for unknown names.
func StateFaultLevel(name string) audit.Level { return stateFaults[name] }

// auditTestConfig is a small compressed+prefetching system: every fault
// class has live state to corrupt (compressed L2 sets, streams, MSHR
// entries, link traffic).
func auditTestConfig() Config {
	cfg := NewConfig("zeus")
	cfg.Cores = 4
	cfg.WarmupInstr = 40_000
	cfg.MeasureInstr = 20_000
	cfg.CacheCompression = true
	cfg.LinkCompression = true
	cfg.Prefetching = true
	cfg.CheckLevel = audit.Off // tests pick the level explicitly
	cfg.CheckInterval = 1024
	return cfg
}

// TestStateFaultMatrix proves every injected corruption class is caught
// at its required check level with the right invariant name — and NOT
// caught at insufficient levels, where the run must still complete.
func TestStateFaultMatrix(t *testing.T) {
	t.Parallel()
	wantInvariant := map[string]string{
		"flip-sharer":    "msi",
		"double-owner":   "msi",
		"corrupt-segs":   "l2-set-state",
		"dup-tag":        "l2-set-state",
		"corrupt-stream": "stream-bounds",
		"drop-flit":      "flit-conservation",
		"leak-mshr":      "mshr-inflight",
		"corrupt-value":  "shadow-value",
		"corrupt-size":   "shadow-fpc",
	}
	names := StateFaultNames()
	if len(names) != len(wantInvariant) {
		t.Fatalf("StateFaultNames() = %v, want the %d catalogued faults", names, len(wantInvariant))
	}
	for _, name := range names {
		if _, ok := wantInvariant[name]; !ok {
			t.Fatalf("fault %q has no expected invariant in the test table", name)
		}
	}
	for _, name := range names {
		for _, level := range []audit.Level{audit.Off, audit.Invariants, audit.Shadow} {
			name, level := name, level
			t.Run(name+"/"+level.String(), func(t *testing.T) {
				t.Parallel()
				cfg := auditTestConfig()
				cfg.CheckLevel = level
				cfg.StateFault = name + "@2000"
				_, err := Run(cfg)
				caught := level >= StateFaultLevel(name)
				if !caught {
					if err != nil {
						t.Fatalf("fault %s at level %s: want clean completion, got %v", name, level, err)
					}
					return
				}
				var v *audit.Violation
				if !errors.As(err, &v) {
					t.Fatalf("fault %s at level %s: want *audit.Violation, got %v", name, level, err)
				}
				if v.Invariant != wantInvariant[name] {
					t.Fatalf("fault %s at level %s: violated %q, want %q (%v)",
						name, level, v.Invariant, wantInvariant[name], v)
				}
			})
		}
	}
}

// TestShadowBitIdentical is the audit determinism contract across the
// size consumers: for each compression mix, a full run at shadow level
// (every block sized and cross-checked against the reference model)
// must complete with zero violations and bit-identical metrics to the
// same run unchecked — which, with neither compression on, builds no
// data model and prices every block at its uncompressed size.
func TestShadowBitIdentical(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name        string
		cache, link bool
	}{
		{"cache+link", true, true},
		{"cache only", true, false},
		{"link only", false, true},
		{"none", false, false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(level audit.Level) Metrics {
				cfg := auditTestConfig()
				cfg.CacheCompression = tc.cache
				cfg.LinkCompression = tc.link
				cfg.CheckLevel = level
				m, err := Run(cfg)
				if err != nil {
					t.Fatalf("level %s: %v", level, err)
				}
				return m
			}
			if off, shadow := run(audit.Off), run(audit.Shadow); !reflect.DeepEqual(off, shadow) {
				t.Fatalf("metrics differ between check levels:\noff:    %+v\nshadow: %+v", off, shadow)
			}
		})
	}
}

// TestDataModelOnlyForSizeReaders: a system builds its data model, and
// the draw that decides which stores change contents, only when
// something reads block sizes or versions — cache compression, link
// compression, an enabled check level or a state fault.
func TestDataModelOnlyForSizeReaders(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want bool
	}{
		{"uncompressed", func(*Config) {}, false},
		{"cache compression", func(c *Config) { c.CacheCompression = true }, true},
		{"link compression", func(c *Config) { c.LinkCompression = true }, true},
		{"invariants", func(c *Config) { c.CheckLevel = audit.Invariants }, true},
		{"state fault", func(c *Config) { c.StateFault = "drop-flit@100" }, true},
	} {
		cfg := auditTestConfig()
		cfg.CacheCompression, cfg.LinkCompression = false, false
		tc.set(&cfg)
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := s.data != nil; got != tc.want {
			t.Errorf("%s: data model built = %v, want %v", tc.name, got, tc.want)
		}
		if got := s.dirtyRng != nil; got != tc.want {
			t.Errorf("%s: dirty-store draw set up = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStateFaultValidation covers the Config.Validate surface for
// StateFault and CheckLevel.
func TestStateFaultValidation(t *testing.T) {
	t.Parallel()
	cfg := auditTestConfig()
	for _, bad := range []string{"flip-sharer", "flip-sharer@", "flip-sharer@0", "@5", "nonsense@100", "flip-sharer@x"} {
		cfg.StateFault = bad
		if err := cfg.Validate(); err == nil {
			t.Errorf("StateFault %q: want validation error", bad)
		}
	}
	cfg.StateFault = "flip-sharer@100"
	if err := cfg.Validate(); err != nil {
		t.Errorf("StateFault flip-sharer@100: %v", err)
	}
	cfg.StateFault = ""
	cfg.CheckLevel = audit.Level(99)
	if err := cfg.Validate(); err == nil {
		t.Error("CheckLevel 99: want validation error")
	}
}

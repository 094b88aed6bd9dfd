package audit

import (
	"errors"
	"strings"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/timing"
)

func TestLevelStringValidEnabled(t *testing.T) {
	cases := []struct {
		l       Level
		s       string
		valid   bool
		enabled bool
	}{
		{Off, "off", true, false},
		{Invariants, "invariants", true, true},
		{Shadow, "shadow", true, true},
		{Level(99), "Level(99)", false, false},
	}
	for _, c := range cases {
		if c.l.String() != c.s || c.l.Valid() != c.valid || c.l.Enabled() != c.enabled {
			t.Errorf("level %d: String=%q Valid=%v Enabled=%v, want %q %v %v",
				c.l, c.l.String(), c.l.Valid(), c.l.Enabled(), c.s, c.valid, c.enabled)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"": Off, "off": Off, "OFF": Off, " invariants ": Invariants,
		"shadow": Shadow, "Shadow": Shadow,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"bogus", "1", "on", "full"} {
		if _, err := ParseLevel(bad); err == nil {
			t.Errorf("ParseLevel(%q): want error", bad)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "invariants")
	if got := FromEnv(); got != Invariants {
		t.Fatalf("FromEnv = %v, want Invariants", got)
	}
	t.Setenv(EnvVar, "nonsense") // unparseable means Off, not a crash
	if got := FromEnv(); got != Off {
		t.Fatalf("FromEnv(nonsense) = %v, want Off", got)
	}
	t.Setenv(EnvVar, "")
	if got := FromEnv(); got != Off {
		t.Fatalf("FromEnv(unset) = %v, want Off", got)
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{Invariant: "msi", Cycle: timing.FromIntCycles(1234), Core: 2, Set: 7, Addr: 0xbeef, Detail: "two owners"}
	msg := v.Error()
	for _, want := range []string{"msi", "1234", "core 2", "set 7", "0xbeef", "two owners"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q: missing %q", msg, want)
		}
	}
	// Unattributable fields stay out of the message.
	bare := (&Violation{Invariant: "flit-conservation", Cycle: 5, Core: -1, Set: -1}).Error()
	if strings.Contains(bare, "core") || strings.Contains(bare, "set") || strings.Contains(bare, "addr") {
		t.Errorf("bare violation leaked unset fields: %q", bare)
	}
}

func TestNewRejectsBadConfigurations(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("invalid level", func() { New(Level(42), nil) })
	mustPanic("shadow without data", func() { New(Shadow, nil) })
	if a := New(Invariants, nil); a.Level() != Invariants {
		t.Fatal("invariants level should not need a LineSource")
	}
}

// capture runs fn and returns the *Violation it panicked with (nil when
// it completed).
func capture(fn func()) (v *Violation) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if v, ok = r.(*Violation); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

func TestCheckRaisesOnlyOnDetail(t *testing.T) {
	a := New(Invariants, nil)
	if v := capture(func() { a.Check("msi", 10, "") }); v != nil {
		t.Fatalf("empty detail raised %v", v)
	}
	v := capture(func() { a.Check("msi", 10, "stale sharer bit") })
	if v == nil || v.Invariant != "msi" || v.Cycle != 10 || !errors.As(error(v), new(*Violation)) {
		t.Fatalf("violation = %+v", v)
	}
}

// patternSource serves deterministic line contents keyed by address.
type patternSource struct {
	lines map[cache.BlockAddr][cache.LineBytes]byte
}

func (p *patternSource) FillLine(a cache.BlockAddr, dst []byte) {
	ln := p.lines[a]
	copy(dst, ln[:])
}

func (p *patternSource) set(a cache.BlockAddr, fill func(i int) byte) uint8 {
	var ln [cache.LineBytes]byte
	for i := range ln {
		ln[i] = fill(i)
	}
	if p.lines == nil {
		p.lines = map[cache.BlockAddr][cache.LineBytes]byte{}
	}
	p.lines[a] = ln
	return uint8(codec.FPC{}.CompressedSizeSegments(ln[:]))
}

func TestShadowValueModel(t *testing.T) {
	src := &patternSource{}
	a := New(Shadow, src)
	a.OnStore(1)
	a.OnStore(1)
	a.OnStore(2)
	if v := capture(func() { a.OnLoad(100, 0, 1, 2) }); v != nil {
		t.Fatalf("matching version raised %v", v)
	}
	v := capture(func() { a.OnLoad(100, 3, 1, 7) })
	if v == nil || v.Invariant != "shadow-value" || v.Core != 3 || v.Addr != 1 {
		t.Fatalf("version mismatch produced %+v", v)
	}
	// Sweep form: lowest mismatching address wins deterministically.
	v = capture(func() {
		a.CheckVersions(200, func(fn func(cache.BlockAddr, uint32)) {
			fn(9, 5)
			fn(2, 1) // matches the shadow model
			fn(4, 5)
		})
	})
	if v == nil || v.Invariant != "shadow-value" || v.Addr != 4 {
		t.Fatalf("CheckVersions produced %+v", v)
	}
}

func TestShadowFPCChecks(t *testing.T) {
	src := &patternSource{}
	a := New(Shadow, src)
	// Small per-word values: sign-extendable, so FPC compresses them.
	segs := src.set(7, func(i int) byte {
		if i%4 == 0 {
			return byte(i / 4)
		}
		return 0
	})
	if segs < 1 || segs >= cache.MaxSegs {
		t.Fatalf("test pattern should compress, got %d segs", segs)
	}

	// Correct size: no violation, size recorded for sweeps.
	if v := capture(func() { a.OnL2Data(10, 7, segs, true) }); v != nil {
		t.Fatalf("correct fill raised %v", v)
	}
	if got, ok := a.RecordedSize(7); !ok || got != segs {
		t.Fatalf("RecordedSize = %d, %v; want %d", got, ok, segs)
	}
	// Wrong memoized size on a compressed fill → shadow-fpc.
	if v := capture(func() { a.OnL2Data(11, 7, segs+1, true) }); v == nil || v.Invariant != "shadow-fpc" {
		t.Fatalf("wrong fill size produced %+v", v)
	}
	// Uncompressed L2: storedSegs is always MaxSegs; no size check, no memo.
	src.set(8, func(i int) byte { return byte(i) })
	if v := capture(func() { a.OnL2Data(12, 8, cache.MaxSegs, false) }); v != nil {
		t.Fatalf("uncompressed fill raised %v", v)
	}
	if _, ok := a.RecordedSize(8); ok {
		t.Fatal("uncompressed fill must not enter the size model")
	}
	// Writeback sized against current contents.
	if v := capture(func() { a.OnWriteback(13, 7, segs) }); v != nil {
		t.Fatalf("correct writeback raised %v", v)
	}
	if v := capture(func() { a.OnWriteback(14, 7, segs+2) }); v == nil || v.Invariant != "shadow-fpc" {
		t.Fatalf("wrong writeback size produced %+v", v)
	}
	if a.ShadowChecks == 0 {
		t.Fatal("ShadowChecks did not count")
	}
}

func TestCheckL2LineSweep(t *testing.T) {
	src := &patternSource{}
	a := New(Shadow, src)
	segs := src.set(3, func(i int) byte { return 0 })
	a.OnL2Data(1, 3, segs, true)
	ln := &cache.Line{Addr: 3, Valid: true, Segs: segs}
	if v := capture(func() { a.CheckL2Line(2, ln) }); v != nil {
		t.Fatalf("consistent line raised %v", v)
	}
	ln.Segs = segs + 1 // mutated outside the fill/resize protocol
	if v := capture(func() { a.CheckL2Line(3, ln) }); v == nil || v.Invariant != "shadow-l2-size" {
		t.Fatalf("mutated line produced %+v", v)
	}
	// Lines the model never saw (filled before warmup hooks) are skipped.
	if v := capture(func() { a.CheckL2Line(4, &cache.Line{Addr: 99, Valid: true, Segs: 1}) }); v != nil {
		t.Fatalf("unknown line raised %v", v)
	}
}

func TestLowLevelsAreFreeOfShadowState(t *testing.T) {
	a := New(Off, nil)
	a.OnStore(1)
	a.OnLoad(1, 0, 1, 42) // would mismatch if checked
	a.OnL2Data(1, 1, 3, true)
	a.OnWriteback(1, 1, 3)
	a.CheckL2Line(1, &cache.Line{Addr: 1, Valid: true, Segs: 5})
	a.CheckVersions(1, func(fn func(cache.BlockAddr, uint32)) { fn(1, 9) })
	if a.ShadowChecks != 0 {
		t.Fatal("Off level performed shadow checks")
	}
}

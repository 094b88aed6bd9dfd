package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || !approx(s.Mean, 5, 1e-12) {
		t.Fatalf("sample %+v", s)
	}
	if !approx(s.StdDev, 2.138, 0.001) {
		t.Fatalf("stddev = %f", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("range %f..%f", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty sample %+v", s)
	}
	s := Summarize([]float64{3.5})
	if s.N != 1 || !approx(s.Mean, 3.5, 1e-12) || s.StdDev != 0 || s.CI95() != 0 {
		t.Fatalf("single sample %+v", s)
	}
}

// The auditor can fail all but one seed of a point (single surviving
// seed) or every seed (empty value list). Neither degenerate sample may
// produce NaN/Inf anywhere report rendering consumes it.
func TestDegenerateSamplesRenderClean(t *testing.T) {
	for name, s := range map[string]Sample{
		"all-seeds-failed": Summarize(nil),
		"single-survivor":  Summarize([]float64{1.25}),
		"identical-values": Summarize([]float64{2, 2, 2}),
	} {
		for field, v := range map[string]float64{
			"Mean": s.Mean, "StdDev": s.StdDev, "CI95": s.CI95(),
			"Min": s.Min, "Max": s.Max,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %f", name, field, v)
			}
		}
		if out := s.String(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s: String() = %q", name, out)
		}
	}
	// A single survivor has no spread: the CI must be exactly zero (the
	// t-table lookup for df=0 would panic if CI95 consulted it).
	if ci := Summarize([]float64{1.25}).CI95(); ci != 0 {
		t.Errorf("single-survivor CI = %f, want 0", ci)
	}
}

func TestTCritical(t *testing.T) {
	if got := TCritical95(1); got != 12.706 {
		t.Fatalf("t(1) = %f", got)
	}
	if got := TCritical95(30); got != 2.042 {
		t.Fatalf("t(30) = %f", got)
	}
	if got := TCritical95(1000); got != 1.960 {
		t.Fatalf("t(1000) = %f", got)
	}
}

func TestTCriticalPanicsOnZeroDF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("df=0 should panic")
		}
	}()
	TCritical95(0)
}

func TestCI95KnownCase(t *testing.T) {
	// n=4, sd=2 -> ci = 3.182 * 2/2 = 3.182
	s := Sample{N: 4, Mean: 10, StdDev: 2}
	if !approx(s.CI95(), 3.182, 1e-9) {
		t.Fatalf("ci = %f", s.CI95())
	}
}

func TestSpeedupAndPct(t *testing.T) {
	sp := Speedup(200, 100)
	if !approx(sp, 2, 1e-12) {
		t.Fatalf("speedup = %f", sp)
	}
	if !approx(SpeedupPct(sp), 100, 1e-12) {
		t.Fatalf("pct = %f", SpeedupPct(sp))
	}
	if !approx(SpeedupPct(Speedup(100, 125)), -20, 1e-9) {
		t.Fatalf("slowdown pct = %f", SpeedupPct(Speedup(100, 125)))
	}
}

func TestSpeedupPanicsOnZeroRuntime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero runtime should panic")
		}
	}()
	Speedup(0, 1)
}

func TestInteractionMatchesEQ5(t *testing.T) {
	// Paper example shape: zeus on 16p, Speedup(P)=0.92, Speedup(C)=1.12,
	// Speedup(P,C)=1.28 -> interaction ≈ +24%.
	i := InteractionPct(0.92, 1.12, 1.28)
	if !approx(i, 24.2, 0.5) {
		t.Fatalf("interaction = %f", i)
	}
	// Multiplicative composition → zero interaction.
	if got := Interaction(1.2, 1.1, 1.32); !approx(got, 0, 1e-12) {
		t.Fatalf("neutral interaction = %g", got)
	}
}

// Property: EQ 5 round-trips — Speedup(A,B) reconstructed from the
// interaction term equals the measured combined speedup.
func TestInteractionRoundTripProperty(t *testing.T) {
	f := func(a, b, ab uint16) bool {
		sa := 0.5 + float64(a%200)/100 // 0.5..2.5
		sb := 0.5 + float64(b%200)/100
		sab := 0.5 + float64(ab%400)/100
		inter := Interaction(sa, sb, sab)
		recon := sa * sb * (1 + inter)
		return approx(recon, sab, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the CI shrinks as n grows for fixed variance.
func TestCIShrinksWithN(t *testing.T) {
	prev := math.Inf(1)
	for n := 2; n <= 30; n++ {
		s := Sample{N: n, StdDev: 1}
		ci := s.CI95()
		if ci >= prev {
			t.Fatalf("ci did not shrink at n=%d: %f >= %f", n, ci, prev)
		}
		prev = ci
	}
}

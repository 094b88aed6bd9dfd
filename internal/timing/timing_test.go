package timing

import "testing"

func TestFromCyclesRounding(t *testing.T) {
	cases := []struct {
		cycles float64
		want   Tick
	}{
		{0, 0},
		{1, TicksPerCycle},
		{0.5, TicksPerCycle / 2},
		{400, 400 * TicksPerCycle},
		// Ties round away from zero.
		{0.5 / TicksPerCycle, 1},
		{-0.5 / TicksPerCycle, -1},
		// Sub-resolution values round to the nearest tick.
		{0.2 / TicksPerCycle, 0},
		{0.8 / TicksPerCycle, 1},
		{-1, -TicksPerCycle},
	}
	for _, tc := range cases {
		if got := FromCycles(tc.cycles); got != tc.want {
			t.Errorf("FromCycles(%g) = %d, want %d", tc.cycles, got, tc.want)
		}
	}
}

func TestCyclesRoundTrip(t *testing.T) {
	// Whole- and half-cycle values are exactly representable.
	for _, c := range []float64{0, 1, 0.5, 3, 15, 400, 4.25} {
		if got := FromCycles(c).Cycles(); got != c {
			t.Errorf("FromCycles(%g).Cycles() = %g", c, got)
		}
	}
	if FromIntCycles(400).Cycles() != 400 {
		t.Error("FromIntCycles/Cycles mismatch")
	}
}

func TestCostPerByte(t *testing.T) {
	if c, err := CostPerByte(4.0); err != nil || c != TicksPerCycle/4 {
		t.Fatalf("CostPerByte(4) = %v, %v", c, err)
	}
	if c, err := CostPerByte(0); err != nil || c != 0 {
		t.Fatalf("CostPerByte(0) = %v, %v", c, err)
	}
	if _, err := CostPerByte(-1); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	// A bandwidth too high for the resolution must be rejected, not
	// silently become infinite.
	if _, err := CostPerByte(4 * TicksPerCycle); err == nil {
		t.Fatal("over-resolution bandwidth accepted")
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 || Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Fatal("Max/Min broken")
	}
}

package faultinject

import (
	"strings"
	"testing"
)

func TestStateFaultMatchingAndSpec(t *testing.T) {
	in := New(
		Rule{Kind: Corrupt, Benchmark: "zeus", Label: "base", Seed: 1, Fault: "hide-l1-copy", After: 500},
		Rule{Kind: Corrupt, Fault: "drop-flit", Seed: AnySeed}, // After defaults
	)
	if got := in.StateFault("zeus", "base", 1); got != "hide-l1-copy@500" {
		t.Fatalf("StateFault = %q, want hide-l1-copy@500", got)
	}
	// Both rules burned out / non-matching: second rule fires for any job.
	if got := in.StateFault("apache", "pf", 0); got != "drop-flit@10000" {
		t.Fatalf("StateFault = %q, want drop-flit@10000 (DefaultAfter)", got)
	}
	if got := in.StateFault("apache", "pf", 0); got != "" {
		t.Fatalf("burned-out rule still fired: %q", got)
	}
}

func TestCorruptRulesInvisibleToHook(t *testing.T) {
	in := New(Rule{Kind: Corrupt, Fault: "leak-mshr", Seed: AnySeed, Count: Forever})
	for i := 0; i < 3; i++ {
		if err := in.Hook("zeus", "base", i); err != nil {
			t.Fatalf("Hook acted on a corrupt rule: %v", err)
		}
	}
	if fired := in.Fired(); fired[0] != 0 {
		t.Fatalf("Hook consumed corrupt-rule firings: %v", fired)
	}
	if got := in.StateFault("zeus", "base", 0); got == "" {
		t.Fatal("StateFault did not fire after Hook calls")
	}
}

func TestParseCorrupt(t *testing.T) {
	in, err := Parse("kind=corrupt,fault=dup-tag,after=777,bench=zeus")
	if err != nil {
		t.Fatal(err)
	}
	if got := in.StateFault("zeus", "base", 0); got != "dup-tag@777" {
		t.Fatalf("parsed rule produced %q", got)
	}
	for _, bad := range []string{
		"kind=corrupt",                    // missing fault=
		"kind=corrupt,fault=",             // empty fault name
		"kind=corrupt,fault=x,after=0",    // zero step
		"kind=corrupt,fault=x,after=-1",   // negative step
		"kind=panic,fault=x",              // fault= on a non-corrupt rule
		"kind=stall,after=5",              // after= on a non-corrupt rule
		"kind=corrupt,fault=x,after=junk", // unparseable step
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error", bad)
		}
	}
	if _, err := Parse("kind=corrupt,fault=anything-sim-side"); err != nil {
		t.Errorf("fault names are validated by sim, not Parse: %v", err)
	}
	if !strings.Contains(Corrupt.String(), "corrupt") {
		t.Errorf("Corrupt.String() = %q", Corrupt.String())
	}
}

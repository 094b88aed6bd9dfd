package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestMatchingAndNth(t *testing.T) {
	in := New(Rule{Kind: Error, Benchmark: "zeus", Label: "base", Seed: 1, Nth: 2})

	if err := in.Hook("zeus", "base", 0); err != nil {
		t.Fatalf("seed 0 should not match: %v", err)
	}
	if err := in.Hook("mgrid", "base", 1); err != nil {
		t.Fatalf("other benchmark should not match: %v", err)
	}
	if err := in.Hook("zeus", "base", 1); err != nil {
		t.Fatalf("first match must not fire (nth=2): %v", err)
	}
	err := in.Hook("zeus", "base", 1)
	if err == nil {
		t.Fatal("second match must fire")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("fired error %v is not ErrInjected", err)
	}
	// count defaults to 1: the rule has burnt out.
	if err := in.Hook("zeus", "base", 1); err != nil {
		t.Fatalf("burnt-out rule fired again: %v", err)
	}
	if got := in.Fired(); got[0] != 1 {
		t.Fatalf("fired = %v, want [1]", got)
	}
}

func TestCountAndForever(t *testing.T) {
	in := New(
		Rule{Kind: Error, Seed: AnySeed, Count: 2},
		Rule{Kind: Error, Seed: AnySeed, Count: Forever},
	)
	for i := 0; i < 5; i++ {
		if err := in.Hook("zeus", "base", 0); err == nil {
			t.Fatalf("call %d did not fire", i)
		}
	}
	// First rule acts (and burns out) first, then the forever rule.
	if got := in.Fired(); got[0] != 2 || got[1] != 3 {
		t.Fatalf("fired = %v, want [2 3]", got)
	}
}

func TestDeterministicSequence(t *testing.T) {
	mk := func() []error {
		in := New(Rule{Kind: Error, Benchmark: "zeus", Seed: AnySeed, Nth: 3, Count: 2})
		var errs []error
		for i := 0; i < 6; i++ {
			errs = append(errs, in.Hook("zeus", "base", i))
		}
		return errs
	}
	a, b := mk(), mk()
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("call %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Fires exactly on matches 3 and 4.
	for i, err := range a {
		want := i == 2 || i == 3
		if (err != nil) != want {
			t.Fatalf("call %d fired=%v, want %v", i, err != nil, want)
		}
	}
}

func TestPanicKind(t *testing.T) {
	in := New(Rule{Kind: Panic})
	defer func() {
		if recover() == nil {
			t.Fatal("panic rule did not panic")
		}
	}()
	in.Hook("zeus", "base", 0)
}

func TestStallKind(t *testing.T) {
	in := New(Rule{Kind: Stall, StallFor: 30 * time.Millisecond})
	start := time.Now()
	if err := in.Hook("zeus", "base", 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("stall returned after %v", d)
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("kind=panic,bench=zeus,label=base,seed=0,nth=2; kind=stall,stall=50ms ;kind=error,count=-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 3 {
		t.Fatalf("rules = %d", len(in.rules))
	}
	p := in.rules[0]
	if p.Kind != Panic || p.Benchmark != "zeus" || p.Label != "base" || p.Seed != 0 || p.Nth != 2 || p.Count != 1 {
		t.Fatalf("panic rule = %+v", p.Rule)
	}
	if s := in.rules[1]; s.Kind != Stall || s.StallFor != 50*time.Millisecond || s.Seed != AnySeed {
		t.Fatalf("stall rule = %+v", s.Rule)
	}
	if er := in.rules[2]; er.Kind != Error || er.Count != Forever {
		t.Fatalf("error rule = %+v", er.Rule)
	}

	for _, bad := range []string{
		"", "kind=meteor", "bench=zeus", "kind=panic,nth=0", "kind=panic,seed=x",
		"kind=stall,stall=-1s", "kind=panic,count=0", "kind=panic,typo",
		"kind=panic,frobnicate=1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestDefaultStall(t *testing.T) {
	in := New(Rule{Kind: Stall})
	if got := in.rules[0].StallFor; got != DefaultStall {
		t.Fatalf("default stall = %v", got)
	}
}

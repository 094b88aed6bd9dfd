package faultinject

import (
	"testing"
	"time"
)

func TestParseTransport(t *testing.T) {
	in, err := Parse("kind=kill,worker=w0,msg=result,nth=1; kind=drop,msg=lease; kind=delay,msg=result,delay=20ms; kind=dup,msg=*,count=-1; kind=corruptmsg,msg=result")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 5 {
		t.Fatalf("rules = %d", len(in.rules))
	}
	k := in.rules[0]
	if k.Kind != Kill || k.Worker != "w0" || k.Msg != "result" || k.Nth != 1 || k.Seed != AnySeed {
		t.Fatalf("kill rule = %+v", k.Rule)
	}
	if d := in.rules[2]; d.Kind != Delay || d.StallFor != 20*time.Millisecond {
		t.Fatalf("delay rule = %+v", d.Rule)
	}
	if d := in.rules[3]; d.Msg != "*" || d.Count != Forever {
		t.Fatalf("dup rule = %+v", d.Rule)
	}

	for _, bad := range []string{
		"kind=drop,msg=hello",   // not an injectable message type
		"kind=drop,msg=",        // empty msg
		"kind=kill,worker=",     // empty worker
		"kind=panic,msg=result", // msg= on a non-transport kind
		"kind=error,worker=w0",  // worker= on a non-transport kind
		"kind=drop,seed=3",      // transport rules cannot pin a seed
		"kind=delay,delay=-5ms", // negative delay
		"kind=delay,delay=bogus",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestTransportMatching(t *testing.T) {
	in := New(
		Rule{Kind: Drop, Msg: "result", Worker: "w1", Seed: AnySeed, Nth: 2},
	)
	// Wrong worker, wrong message type: no action.
	if _, ok := in.Transport("result", "w0", "zeus", "base"); ok {
		t.Fatal("fired for the wrong worker")
	}
	if _, ok := in.Transport("lease", "w1", "zeus", "base"); ok {
		t.Fatal("fired for the wrong message type")
	}
	// First match is armed but nth=2 holds fire.
	if _, ok := in.Transport("result", "w1", "zeus", "base"); ok {
		t.Fatal("fired before nth reached")
	}
	act, ok := in.Transport("result", "w1", "zeus", "base")
	if !ok || act.Kind != Drop {
		t.Fatalf("second match did not drop: %+v %v", act, ok)
	}
	// Count defaults to 1: burnt out.
	if _, ok := in.Transport("result", "w1", "zeus", "base"); ok {
		t.Fatal("burnt-out transport rule fired again")
	}
}

func TestTransportWildcardAndDelay(t *testing.T) {
	in := New(
		Rule{Kind: Delay, Msg: "*", Seed: AnySeed, StallFor: 7 * time.Millisecond, Count: Forever},
	)
	for _, msg := range []string{"lease", "result", "heartbeat"} {
		act, ok := in.Transport(msg, "anyone", "zeus", "base")
		if !ok || act.Kind != Delay || act.Delay != 7*time.Millisecond {
			t.Fatalf("wildcard delay missed %s: %+v %v", msg, act, ok)
		}
	}
}

func TestTransportRulesInvisibleToHook(t *testing.T) {
	// A transport rule must never fire through the simulation-level Hook,
	// and simulation rules must never fire through Transport.
	in := New(
		Rule{Kind: Drop, Msg: "result", Seed: AnySeed, Count: Forever},
		Rule{Kind: Error, Seed: AnySeed, Count: Forever},
	)
	if err := in.Hook("zeus", "base", 0); err == nil {
		t.Fatal("error rule should fire through Hook")
	}
	act, ok := in.Transport("result", "w0", "zeus", "base")
	if !ok || act.Kind != Drop {
		t.Fatalf("drop rule should fire through Transport: %+v %v", act, ok)
	}
	// The error rule fired via Hook only; the drop rule via Transport
	// only.
	if got := in.Fired(); got[0] == 0 || got[1] == 0 {
		t.Fatalf("fired = %v", got)
	}
}

func TestTransportBenchmarkFilter(t *testing.T) {
	in := New(Rule{Kind: CorruptMsg, Msg: "result", Benchmark: "zeus", Seed: AnySeed, Count: Forever})
	if _, ok := in.Transport("result", "w0", "mgrid", "base"); ok {
		t.Fatal("fired for the wrong benchmark")
	}
	if _, ok := in.Transport("result", "w0", "zeus", "base"); !ok {
		t.Fatal("did not fire for the matching benchmark")
	}
}

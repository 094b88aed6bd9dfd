package faultinject

import (
	"strings"
	"testing"
)

func TestCoordRuleFiresOnNthMessage(t *testing.T) {
	in, err := Parse("kind=killcoord,msg=result,nth=2")
	if err != nil {
		t.Fatal(err)
	}
	// hello/next never match a msg=result rule.
	if _, ok := in.Coord("hello", "w0"); ok {
		t.Fatal("hello matched a result rule")
	}
	if _, ok := in.Coord("result", "w0"); ok {
		t.Fatal("fired on the first match with nth=2")
	}
	kind, ok := in.Coord("result", "w1")
	if !ok || kind != KillCoord {
		t.Fatalf("second result did not fire: kind=%v ok=%v", kind, ok)
	}
	// count defaults to 1: burned out.
	if _, ok := in.Coord("result", "w0"); ok {
		t.Fatal("rule fired past its count")
	}
	if fired := in.Fired(); fired[0] != 1 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCoordRuleWorkerSelector(t *testing.T) {
	in, err := Parse("kind=restartcoord,msg=next,worker=w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := in.Coord("next", "w0"); ok {
		t.Fatal("matched the wrong worker")
	}
	kind, ok := in.Coord("next", "w1")
	if !ok || kind != RestartCoord {
		t.Fatalf("targeted worker did not fire: kind=%v ok=%v", kind, ok)
	}
}

func TestCoordRulesDoNotLeakIntoOtherHooks(t *testing.T) {
	in, err := Parse("kind=killcoord,msg=*")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Hook("zeus", "base", 0); err != nil {
		t.Fatalf("seed hook acted on a coordinator rule: %v", err)
	}
	if _, ok := in.Transport("result", "w0", "zeus", "base"); ok {
		t.Fatal("worker transport hook acted on a coordinator rule")
	}
	// And the converse: worker/seed rules never reach Coord.
	in2, err := Parse("kind=kill,msg=result;kind=panic,bench=zeus")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := in2.Coord("result", "w0"); ok {
		t.Fatal("Coord acted on a non-coordinator rule")
	}
}

func TestCoordRuleParseRejections(t *testing.T) {
	for _, spec := range []string{
		"kind=killcoord,seed=0",
		"kind=killcoord,bench=zeus",
		"kind=restartcoord,label=base",
		"kind=killcoord,msg=lease",
		"kind=killcoord,fault=flip-sharer",
		"kind=drop,msg=hello",
		"kind=kill,msg=next",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	for _, spec := range []string{
		"kind=killcoord",
		"kind=killcoord,msg=*",
		"kind=restartcoord,msg=hello,worker=w0,nth=3,count=-1",
	} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
}

func TestCoordRuleStringNames(t *testing.T) {
	if KillCoord.String() != "killcoord" || RestartCoord.String() != "restartcoord" {
		t.Fatalf("kind names: %v %v", KillCoord, RestartCoord)
	}
	// Every kind round-trips through the spec grammar under a distinct
	// name; the first value past the table has none.
	seen := make(map[string]bool)
	for k := Panic; k <= RestartCoord; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "Kind(") || seen[name] {
			t.Fatalf("kind %d has name %q", int(k), name)
		}
		seen[name] = true
		spec := "kind=" + name
		if k == Corrupt {
			spec += ",fault=flip-sharer" // corrupt rules require a fault name
		}
		in, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := in.rules[0].Kind; got != k {
			t.Fatalf("Parse(%q) kind = %v, want %v", spec, got, k)
		}
	}
	if len(seen) != 11 {
		t.Fatalf("%d kinds named, want 11", len(seen))
	}
	if got := (RestartCoord + 1).String(); got != "Kind(11)" {
		t.Fatalf("unnamed kind prints %q", got)
	}
}

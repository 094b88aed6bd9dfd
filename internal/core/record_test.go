package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cmpsim/internal/sim"
)

// schedulingOnlyFields is the complete list of Options fields that are
// canonicalized out of the point identity. The drift guard below forces
// every NEW Options field to be classified: either it changes PointKey
// (identity-bearing) or its name is added here (scheduling-only) — it
// cannot be left ambiguous, because the scheduler cache and the shared
// result store both key on the same function.
var schedulingOnlyFields = map[string]bool{
	"PointTimeout": true,
	"CheckLevel":   true,
}

// perturb sets one struct field to a value different from its current
// one, so the guard can observe whether the key moves.
func perturb(f reflect.Value) {
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 7)
	case reflect.Uint64:
		f.SetUint(f.Uint() + 7777)
	case reflect.Float64:
		f.SetFloat(f.Float() + 3.5)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		f.SetString(f.String() + "xx")
	default:
		panic("record_test: unhandled Options field kind " + f.Kind().String())
	}
}

func TestPointKeyDriftGuard(t *testing.T) {
	base := tinyOptions()
	baseKey := PointKey("zeus", Compression, base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		t.Run(field.Name, func(t *testing.T) {
			o := base
			perturb(reflect.ValueOf(&o).Elem().Field(i))
			if field.Name == "DecompressionCycles" {
				// Gated: ignored unless DecompressionSet, identity-bearing
				// with it. Both halves are pinned.
				if PointKey("zeus", Compression, o) != baseKey {
					t.Fatal("DecompressionCycles without DecompressionSet changed the key")
				}
				o.DecompressionSet = true
				withSet := base
				withSet.DecompressionSet = true
				if PointKey("zeus", Compression, o) == PointKey("zeus", Compression, withSet) {
					t.Fatal("DecompressionCycles with DecompressionSet did not change the key")
				}
				return
			}
			changed := PointKey("zeus", Compression, o) != baseKey
			if schedulingOnlyFields[field.Name] && changed {
				t.Fatalf("scheduling-only field %s changed the point key", field.Name)
			}
			if !schedulingOnlyFields[field.Name] && !changed {
				t.Fatalf("field %s did not change the point key; classify it: either it is identity-bearing (fix canonicalOpts) or add it to schedulingOnlyFields AND canonicalOpts", field.Name)
			}
		})
	}
}

func TestPointKeyAliases(t *testing.T) {
	base := tinyOptions()
	ref := PointKey("zeus", Prefetch, base)

	o := base
	o.PrefetcherKind = "stride" // the engine "" already selects
	if PointKey("zeus", Prefetch, o) != ref {
		t.Error("PrefetcherKind \"stride\" is not key-equivalent to \"\"")
	}
	o = base
	o.Codec = "fpc" // the explicit default codec
	if PointKey("zeus", Prefetch, o) != ref {
		t.Error("Codec \"fpc\" is not key-equivalent to \"\"")
	}
	for _, lvl := range []string{"off", "invariants", "shadow"} {
		o = base
		o.CheckLevel = lvl
		if PointKey("zeus", Prefetch, o) != ref {
			t.Errorf("CheckLevel %q changed the point key", lvl)
		}
	}
}

// TestPointKeyMatchesSchedulerCache pins the contract PointKey
// documents: two requests share a string key if and only if they land
// on the same scheduler cache entry (canonicalKey).
func TestPointKeyMatchesSchedulerCache(t *testing.T) {
	a := tinyOptions()
	b := a
	b.PointTimeout = time.Minute
	b.CheckLevel = "shadow"
	if canonicalKey("zeus", Base, a) != canonicalKey("zeus", Base, b) {
		t.Fatal("scheduling-only fields changed the cache key")
	}
	if PointKey("zeus", Base, a) != PointKey("zeus", Base, b) {
		t.Fatal("scheduling-only fields changed the string key")
	}
	c := a
	c.Cores = a.Cores + 1
	if canonicalKey("zeus", Base, a) == canonicalKey("zeus", Base, c) {
		t.Fatal("Cores did not change the cache key")
	}
	if PointKey("zeus", Base, a) == PointKey("zeus", Base, c) {
		t.Fatal("Cores did not change the string key")
	}
	// The key is canonicalization-idempotent: pre-canonicalized options
	// produce the identical string.
	if PointKey("zeus", Base, b) != PointKey("zeus", Base, CanonicalOptions(b)) {
		t.Fatal("PointKey is not canonicalization-idempotent")
	}
}

func TestPointRecordValidate(t *testing.T) {
	o := tinyOptions()
	p := Point{Benchmark: "zeus", Runs: make([]sim.Metrics, o.Seeds)}
	good := NewPointRecord("zeus", Base, o, p)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}

	bad := good
	bad.Benchmark = ""
	if bad.Validate() == nil {
		t.Error("record without benchmark accepted")
	}

	bad = good
	bad.Options.PointTimeout = time.Second // non-canonical stored identity
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Errorf("non-canonical options accepted: %v", err)
	}

	bad = good
	bad.Point.Runs = bad.Point.Runs[:1]
	bad.Options.Seeds = 2
	if bad.Validate() == nil {
		t.Error("run count / seed mismatch accepted")
	}

	bad = good
	bad.Options.Seeds = 0
	bad.Point.Runs = nil
	if bad.Validate() == nil {
		t.Error("zero-seed record accepted")
	}
}

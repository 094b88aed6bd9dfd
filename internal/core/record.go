// Canonical point identity and the serialized point record. Exactly one
// function — canonicalOpts — decides which Options fields are part of a
// data point's identity; the in-process scheduler cache and the
// cross-process result store (internal/store via internal/fleet) both
// derive their keys from it, so the two can never disagree on whether
// two requests name the same simulation. A reflection drift guard in
// record_test.go forces every new Options field to be classified as
// identity-bearing or scheduling-only.
package core

import (
	"encoding/json"
	"fmt"

	"cmpsim/internal/codec"
	"cmpsim/internal/prefetch"
)

// CanonicalOptions normalizes scheduling-only and aliasing fields so
// that equivalent requests share one identity (the exported form of the
// scheduler's cache-key canonicalization; see canonicalOpts).
func CanonicalOptions(o Options) Options { return canonicalOpts(o) }

// canonicalOpts normalizes scheduling-only and aliasing fields so that
// equivalent requests share one cache entry: Workers and the
// robustness knobs (PointTimeout, MaxRetries, RetryBackoff) do not affect
// simulation results, CheckLevel is a read-only audit tier, the
// registries' default names ("stride", "fpc") select what "" already
// selects, and DecompressionCycles is ignored by config unless
// DecompressionSet. RefSource deliberately has no alias: "" means each
// profile's own kind, which is not the same simulation as "strided" on
// an irregular benchmark.
func canonicalOpts(o Options) Options {
	o.Workers = 0
	o.PointTimeout = 0
	o.MaxRetries = 0
	o.RetryBackoff = 0
	o.CheckLevel = ""
	if o.PrefetcherKind == prefetch.DefaultName {
		o.PrefetcherKind = ""
	}
	if o.Codec == codec.DefaultName {
		// The explicit default codec is the same simulation as "".
		o.Codec = ""
	}
	if !o.DecompressionSet {
		o.DecompressionCycles = 0
	}
	return o
}

// canonicalKey builds the scheduler's cache key for one request.
func canonicalKey(bench string, m Mechanisms, o Options) pointKey {
	return pointKey{bench: bench, mech: m, opts: canonicalOpts(o)}
}

// keyData is the JSON shape of a point's string identity: the record
// header minus the point payload, in fixed field order.
type keyData struct {
	Benchmark  string     `json:"benchmark"`
	Mechanisms Mechanisms `json:"mechanisms"`
	Options    Options    `json:"options"`
}

// PointKey returns the canonical string identity of one data point —
// the content address under which the result store files its record.
// Two requests get the same key if and only if they land on the same
// scheduler cache entry (pinned by the drift-guard test).
func PointKey(bench string, m Mechanisms, o Options) string {
	b, err := json.Marshal(keyData{Benchmark: bench, Mechanisms: m, Options: canonicalOpts(o)})
	if err != nil {
		// Options and Mechanisms are plain scalar structs; Marshal cannot
		// fail on them short of a programming error.
		panic(fmt.Sprintf("core: PointKey marshal: %v", err))
	}
	return string(b)
}

// PointRecord is the canonical serialized form of one finished data
// point: its full identity plus the Point itself. The shared result
// store and the fleet protocol both carry this shape,
// and every numeric field round-trips exactly through encoding/json
// (shortest-form float encoding), which preserves the determinism
// contract across process boundaries.
type PointRecord struct {
	Benchmark  string     `json:"benchmark"`
	Mechanisms Mechanisms `json:"mechanisms"`
	Options    Options    `json:"options"` // canonical form
	Point      Point      `json:"point"`
}

// NewPointRecord assembles the record for a finished point,
// canonicalizing the options so the stored identity matches the key.
func NewPointRecord(bench string, m Mechanisms, o Options, p Point) PointRecord {
	return PointRecord{Benchmark: bench, Mechanisms: m, Options: canonicalOpts(o), Point: p}
}

// Key returns the record's content address.
func (r PointRecord) Key() string {
	return PointKey(r.Benchmark, r.Mechanisms, r.Options)
}

// Validate rejects records that could not have been produced by a
// healthy run: a non-canonical option set (the stored identity would
// disagree with its own key), a seed count that does not match the
// options, or a missing benchmark. Restores must never trust a record
// that fails this.
func (r PointRecord) Validate() error {
	if r.Benchmark == "" {
		return fmt.Errorf("core: point record missing benchmark")
	}
	if r.Options != canonicalOpts(r.Options) {
		return fmt.Errorf("core: point record options are not canonical")
	}
	if r.Options.Seeds < 1 || len(r.Point.Runs) != r.Options.Seeds {
		return fmt.Errorf("core: point record has %d runs for %d seeds", len(r.Point.Runs), r.Options.Seeds)
	}
	return nil
}

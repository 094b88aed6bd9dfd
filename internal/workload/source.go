package workload

import "cmpsim/internal/registry"

// RefSource is the contract between a per-core reference generator and
// the simulator's front end: batched generation plus its emission
// counters. Implementations must be deterministic in
// (Profile, core, seed), hold only core-private mutable state, and
// never end (see DESIGN.md §6i).
type RefSource interface {
	// NextN fills refs with the next len(refs) references in program
	// order and returns len(refs).
	NextN(refs []Ref) int
	// Counts reports instructions retired, data references and
	// instruction-block fetches emitted so far.
	Counts() (instructions, dataRefs, ifetches uint64)
}

// SourceFactory builds the reference source for one core of a run.
type SourceFactory func(p Profile, core int, seed int64) RefSource

// DefaultSource is the kind a Profile with an empty Kind resolves to:
// the original strided Generator.
const DefaultSource = "strided"

// sources holds the source factories in registration order, so
// SourceNames is fixed.
var sources = registry.New[SourceFactory]("workload", "reference source", DefaultSource)

func init() {
	sources.Add(DefaultSource, func(p Profile, core int, seed int64) RefSource {
		return NewGenerator(p, core, seed)
	})
	sources.Add("ptrchase", newChaseSource)
	sources.Add("hashprobe", newHashProbeSource)
	sources.Add("btree", newBTreeSource)
	sources.Add("srvmix", newServiceMixSource)
}

// SourceNames lists the registered reference-source kinds in
// registration order (the default first).
func SourceNames() []string { return sources.Names() }

// SourceRegistered reports whether name is a registered kind; "" means
// the default.
func SourceRegistered(name string) bool { return sources.Has(name) }

// SourceByName returns the factory for a kind; "" means the default
// strided generator.
func SourceByName(name string) (SourceFactory, error) { return sources.Get(name) }

// MustNewSource builds core's reference source of the given kind, which
// the caller has validated; "" means the profile's own Kind (and,
// failing that, the strided default).
func MustNewSource(kind string, p Profile, core int, seed int64) RefSource {
	if kind == "" {
		kind = p.Kind
	}
	return sources.Must(kind)(p, core, seed)
}

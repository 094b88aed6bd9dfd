package workload

import "fmt"

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

var (
	sourceNames []string // registration order
	sources     = map[string]SourceFactory{}
)

// registerSource adds a factory under a unique name. All registrations
// happen from this package's init below so the name order is fixed.
func registerSource(name string, f SourceFactory) {
	if name == "" || f == nil {
		panic("workload: registerSource with empty name or nil factory")
	}
	if _, dup := sources[name]; dup {
		panic("workload: duplicate reference source " + name)
	}
	sourceNames = append(sourceNames, name)
	sources[name] = f
}

func init() {
	registerSource(DefaultSource, func(p Profile, core int, seed int64) RefSource {
		return NewGenerator(p, core, seed)
	})
	registerSource("ptrchase", newChaseSource)
	registerSource("hashprobe", newHashProbeSource)
	registerSource("btree", newBTreeSource)
	registerSource("srvmix", newServiceMixSource)
}

// SourceNames lists the registered reference-source kinds in
// registration order (the default first).
func SourceNames() []string {
	return append([]string(nil), sourceNames...)
}

// SourceRegistered reports whether name is a registered kind.
func SourceRegistered(name string) bool {
	_, ok := sources[name]
	return ok
}

// SourceByName returns the factory for a kind; "" means the default
// strided generator.
func SourceByName(name string) (SourceFactory, error) {
	if name == "" {
		name = DefaultSource
	}
	f, ok := sources[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown reference source %q (have %v)", name, SourceNames())
	}
	return f, nil
}

// NewSource builds core's reference source of the given kind; "" means
// the profile's own Kind (and, failing that, the strided default).
func NewSource(kind string, p Profile, core int, seed int64) (RefSource, error) {
	if kind == "" {
		kind = p.Kind
	}
	f, err := SourceByName(kind)
	if err != nil {
		return nil, err
	}
	return f(p, core, seed), nil
}

// MustNewSource is NewSource for callers with validated kinds.
func MustNewSource(kind string, p Profile, core int, seed int64) RefSource {
	s, err := NewSource(kind, p, core, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Counts implements RefSource for the strided Generator.
func (g *Generator) Counts() (instructions, dataRefs, ifetches uint64) {
	return g.Instructions, g.DataRefs, g.IFetches
}

var _ RefSource = (*Generator)(nil)

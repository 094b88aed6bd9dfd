package prefetch

import "cmpsim/internal/registry"

// Factory builds one prefetch engine for a cache level from that
// level's stride-engine Config; implementations derive their own
// parameters from it so every kind scales comparably between the L1
// (StartupDepth 6) and L2 (StartupDepth 25) levels.
type Factory func(c Config) Prefetcher

// DefaultName is the kind an empty PrefetcherKind resolves to: the
// paper's Power4-style stride engine.
const DefaultName = "stride"

// kinds holds the engine factories in registration order, so Names()
// is fixed.
var kinds = registry.New[Factory]("prefetch", "prefetcher", DefaultName)

func init() {
	kinds.Add(DefaultName, func(c Config) Prefetcher { return New(c) })
	kinds.Add("sequential", newSequential)
	kinds.Add("stream", newStreamBuffers)
	kinds.Add("markov", newMarkov)
}

// Names lists the registered prefetcher kinds in registration order
// (the default first).
func Names() []string { return kinds.Names() }

// ByName returns the factory for a kind; "" means the default stride
// engine.
func ByName(name string) (Factory, error) { return kinds.Get(name) }

// MustByName is ByName for callers with validated kinds.
func MustByName(name string) Factory { return kinds.Must(name) }

package prefetch

import "fmt"

// Factory builds one prefetch engine for a cache level from that
// level's stride-engine Config; implementations derive their own
// parameters from it so every kind scales comparably between the L1
// (StartupDepth 6) and L2 (StartupDepth 25) levels.
type Factory func(c Config) Prefetcher

// DefaultName is the kind an empty PrefetcherKind resolves to: the
// paper's Power4-style stride engine.
const DefaultName = "stride"

var (
	kindNames []string // registration order
	factories = map[string]Factory{}
)

// Register adds a factory under a unique kind name. The built-in kinds
// register from this package's init below, so registration order — and
// therefore Names() — is fixed.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("prefetch: Register with empty name or nil factory")
	}
	if _, dup := factories[name]; dup {
		panic("prefetch: duplicate prefetcher kind " + name)
	}
	kindNames = append(kindNames, name)
	factories[name] = f
}

func init() {
	Register(DefaultName, func(c Config) Prefetcher { return New(c) })
	Register("sequential", func(c Config) Prefetcher {
		sc := DefaultSequentialConfig()
		sc.Degree = c.StartupDepth / 3 // comparable aggressiveness
		if sc.Degree < 1 {
			sc.Degree = 1
		}
		return NewSequential(sc)
	})
	Register("stream", func(c Config) Prefetcher { return NewStreamBuffers(StreamConfigFor(c)) })
	Register("markov", func(c Config) Prefetcher { return NewMarkov(MarkovConfigFor(c)) })
}

// Names lists the registered prefetcher kinds in registration order
// (the default first).
func Names() []string {
	return append([]string(nil), kindNames...)
}

// ByName returns the factory for a kind; "" means the default stride
// engine.
func ByName(name string) (Factory, error) {
	if name == "" {
		name = DefaultName
	}
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("prefetch: unknown prefetcher %q (have %v)", name, Names())
	}
	return f, nil
}

// MustByName is ByName for callers with validated kinds.
func MustByName(name string) Factory {
	f, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

// Package cmpsim reproduces "Interactions Between Compression and
// Prefetching in Chip Multiprocessors" (Alameldeen & Wood, HPCA 2007)
// as a from-scratch Go library: a trace-driven CMP memory-system timing
// simulator with Frequent Pattern Compression, a decoupled
// variable-segment compressed shared L2, MSI coherence, link
// compression over flit-based pins, Power4-style stride prefetching and
// the paper's adaptive prefetch throttling, plus synthetic models of the
// paper's eight benchmarks and drivers that regenerate every table and
// figure of its evaluation.
//
// The implementation lives under internal/: see internal/core for the
// experiment-facing API, cmd/cmpsim, cmd/experiments and cmd/compbench
// for the binaries, and the examples/ directory for runnable
// walkthroughs. cmd/experiments is the only producer of the paper's
// numbers: every table and figure, plus the ablations of the design
// choices discussed in DESIGN.md.
package cmpsim

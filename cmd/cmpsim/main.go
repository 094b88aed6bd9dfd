// Command cmpsim runs a single CMP simulation and prints its metrics.
//
// Usage:
//
//	cmpsim -bench zeus -cores 8 -compress -prefetch -adaptive \
//	       -instr 300000 -warmup 300000 -bw 20 -seed 1
//
// -bw 0 models infinite pin bandwidth (the paper's bandwidth-demand
// measurement mode). -prefetcher selects the engine from the prefetch
// registry (stride, sequential, stream, markov) and -workload overrides
// the benchmark's reference-source kind (e.g. forcing ptrchase onto a
// commercial profile).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"cmpsim/internal/audit"
	"cmpsim/internal/codec"
	"cmpsim/internal/coherence"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/report"
	"cmpsim/internal/sim"
	"cmpsim/internal/workload"
)

// usageErr reports a bad flag value the way bad arguments are reported:
// the message plus the usage text, exit status 2.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cmpsim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cmpsim: ")

	var pfKind string
	flag.StringVar(&pfKind, "prefetcher",
		prefetch.DefaultName, "prefetch engine: "+strings.Join(prefetch.Names(), ", "))
	flag.StringVar(&pfKind, "pf-kind", prefetch.DefaultName, "alias for -prefetcher")
	var (
		bench    = flag.String("bench", "zeus", "benchmark: "+strings.Join(workload.Names(), ", "))
		source   = flag.String("workload", "", "reference-source kind override: "+strings.Join(workload.SourceNames(), ", ")+" (default: the benchmark's own)")
		cores    = flag.Int("cores", 8, "number of processor cores")
		seed     = flag.Int64("seed", 1, "workload seed")
		instr    = flag.Uint64("instr", 300_000, "measured instructions per core")
		warmup   = flag.Uint64("warmup", 300_000, "warmup instructions per core")
		cacheC   = flag.Bool("cache-compress", false, "enable L2 cache compression")
		linkC    = flag.Bool("link-compress", false, "enable link compression")
		compress = flag.Bool("compress", false, "enable both cache and link compression")
		codecN   = flag.String("codec", "", "compression codec: fpc (paper default), bdi, zca or cpack")
		pf       = flag.Bool("prefetch", false, "enable prefetching (see -prefetcher)")
		adaptive = flag.Bool("adaptive", false, "enable adaptive prefetch throttling")
		bwGBps   = flag.Float64("bw", 20, "pin bandwidth in GB/s (0 = infinite)")
		l2MB     = flag.Int("l2mb", 4, "shared L2 size in MB")
		l1depth  = flag.Int("l1depth", 0, "override L1 startup prefetch depth (0 = paper default 6)")
		l2depth  = flag.Int("l2depth", 0, "override L2 startup prefetch depth (0 = paper default 25)")
		timeline = flag.String("timeline", "", "export the interval timeline to PREFIX.jsonl and PREFIX.csv")
		interval = flag.Uint64("interval", 0, "telemetry interval in aggregate instructions (0 = auto: 1/50 of the window when -timeline is set)")
		check    = flag.String("check", "", "runtime self-checking: off, invariants or shadow (default: the CMPSIM_CHECK environment variable)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file after the run")
		verbose  = flag.Bool("v", false, "print the full metric breakdown")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cmpsim: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	// Validate every flag up front: one clear error beats a panic (or a
	// silently meaningless run) deep inside the simulator. Name-typo
	// errors (benchmark, prefetcher, reference source) are usage errors —
	// they list the registered names and exit 2 like any bad argument.
	if _, err := workload.ByName(*bench); err != nil {
		usageErr("-bench: %v", err)
	}
	if _, err := prefetch.ByName(pfKind); err != nil {
		usageErr("-prefetcher: %v", err)
	}
	if *source != "" && !workload.SourceRegistered(*source) {
		usageErr("-workload %q unknown (have %v)", *source, workload.SourceNames())
	}
	if *cores < 1 || *cores > 32 {
		log.Fatalf("-cores %d out of range [1, 32]", *cores)
	}
	if *instr == 0 {
		log.Fatal("-instr must be positive")
	}
	if *bwGBps < 0 {
		log.Fatalf("-bw %g must be >= 0 (0 = infinite pins)", *bwGBps)
	}
	if *l2MB < 1 {
		log.Fatalf("-l2mb %d must be positive", *l2MB)
	}
	if *l1depth < 0 || *l2depth < 0 {
		log.Fatal("-l1depth and -l2depth must be >= 0")
	}
	cdc, err := codec.ByName(*codecN)
	if err != nil {
		log.Fatalf("-codec: %v", err)
	}
	checkLevel, err := audit.ParseLevel(*check)
	if err != nil {
		log.Fatalf("-check: %v", err)
	}

	cfg := sim.NewConfig(*bench)
	cfg.Cores = *cores
	cfg.Seed = *seed
	cfg.MeasureInstr = *instr
	cfg.WarmupInstr = *warmup
	cfg.CacheCompression = *cacheC || *compress
	cfg.Codec = *codecN
	if cdc.Name() != codec.DefaultName {
		cfg.DecompressionCycles = cdc.DecompressionCycles()
	}
	cfg.LinkCompression = *linkC || *compress
	cfg.Prefetching = *pf || *adaptive
	cfg.AdaptivePrefetch = *adaptive
	cfg.L2Bytes = *l2MB << 20
	cfg.L1PrefetchDepth = *l1depth
	cfg.L2PrefetchDepth = *l2depth
	if pfKind != prefetch.DefaultName {
		cfg.PrefetcherKind = pfKind
	}
	cfg.RefSource = *source
	cfg.Memory.LinkBytesPerCycle = *bwGBps / cfg.ClockGHz
	cfg.TelemetryInterval = *interval
	if *check != "" {
		cfg.CheckLevel = checkLevel // explicit flag overrides CMPSIM_CHECK
	}
	if *timeline != "" && cfg.TelemetryInterval == 0 {
		cfg.TelemetryInterval = cfg.MeasureInstr * uint64(cfg.Cores) / 50
		if cfg.TelemetryInterval == 0 {
			cfg.TelemetryInterval = 1
		}
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
	}
	m, err := sim.Run(cfg)
	if *cpuprof != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		log.Fatal(err)
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		f.Close()
	}
	printMetrics(os.Stdout, m, *verbose)
	if *timeline != "" {
		if err := exportTimeline(*timeline, m); err != nil {
			log.Fatal(err)
		}
	}
}

// exportTimeline writes the run's timeline as prefix.jsonl + prefix.csv.
func exportTimeline(prefix string, m sim.Metrics) error {
	meta := report.TimelineMeta{Benchmark: m.Benchmark, Label: m.Label, Seed: m.Seed}
	for ext, write := range map[string]func(io.Writer) error{
		".jsonl": func(w io.Writer) error { return report.TimelineJSONL(w, meta, m.Timeline) },
		".csv":   func(w io.Writer) error { return report.TimelineCSV(w, meta, m.Timeline) },
	} {
		f, err := os.Create(prefix + ext)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "cmpsim: wrote %d timeline samples to %s.jsonl and %s.csv\n",
		len(m.Timeline), prefix, prefix)
	return nil
}

func printMetrics(w *os.File, m sim.Metrics, verbose bool) {
	fmt.Fprintf(w, "benchmark      %s (%s, %d cores, seed %d)\n", m.Benchmark, m.Label, m.Cores, m.Seed)
	fmt.Fprintf(w, "instructions   %d\n", m.Instructions)
	fmt.Fprintf(w, "runtime        %.0f cycles (%.3g s at 5 GHz)\n", m.Cycles, m.Seconds)
	fmt.Fprintf(w, "IPC            %.3f aggregate (%.3f per core)\n", m.IPC, m.IPC/float64(m.Cores))
	fmt.Fprintf(w, "L2             %d accesses, %d misses (%.1f%%, %.2f per KI)\n",
		m.L2Accesses, m.L2Misses, m.L2MissRate*100, m.L2MissesPerKI)
	fmt.Fprintf(w, "bandwidth      %.2f GB/s demand, %.0f%% link utilization\n",
		m.BandwidthGBps, m.LinkUtilization*100)
	fmt.Fprintf(w, "compression    ratio %.2f (effective %.2f MB), %d compressed hits\n",
		m.CompressionRatio, m.EffectiveL2Bytes/(1<<20), m.L2CompressedHits)
	if verbose {
		fmt.Fprintf(w, "L1I            %d accesses, %d misses (%.2f%%)\n",
			m.L1IAccesses, m.L1IMisses, pct(m.L1IMisses, m.L1IAccesses))
		fmt.Fprintf(w, "L1D            %d accesses, %d misses (%.2f%%)\n",
			m.L1DAccesses, m.L1DMisses, pct(m.L1DMisses, m.L1DAccesses))
		fmt.Fprintf(w, "mem            %d fetches, %d writebacks, %d bytes\n",
			m.MemFetches, m.MemWritebacks, m.OffChipBytes)
		fmt.Fprintf(w, "queueing       link %.0f cycles, DRAM %.0f cycles (measurement window)\n",
			m.LinkQueueDelay, m.DRAMQueueDelay)
		fmt.Fprintf(w, "L2 evictions   %d total, %d useless-prefetch\n",
			m.L2Evictions, m.L2UselessPfEvictions)
		fmt.Fprintf(w, "coherence      %d upgrades, %d dirty forwards, %d invalidations\n",
			m.StoreUpgrades, m.DirtyForwards, m.Invalidations)
		fmt.Fprintf(w, "mean L2 hit    %.2f cycles\n", m.MeanL2HitLatency)
		for _, src := range []coherence.PfSource{coherence.PfL1I, coherence.PfL1D, coherence.PfL2} {
			e := m.Engine(src)
			fmt.Fprintf(w, "pf %-4s        rate %.2f/KI  coverage %.1f%%  accuracy %.1f%%  (issued %d, hits %d, partial %d, redundant %d, streams %d)\n",
				src, e.RatePer1000(m.Instructions), e.Coverage()*100, e.Accuracy()*100,
				e.Prefetches, e.PrefetchHits, e.PartialHits, e.Redundant, e.StreamAllocs)
		}
		fmt.Fprintf(w, "adaptive       useful %d, useless %d, harmful %d; final caps L1I %.1f L1D %.1f L2 %d\n",
			m.Adaptive.Useful, m.Adaptive.Useless, m.Adaptive.Harmful,
			m.Adaptive.FinalCapL1I, m.Adaptive.FinalCapL1D, m.Adaptive.FinalCapL2)
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

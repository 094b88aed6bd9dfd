// Command experiments regenerates every table and figure of the paper's
// evaluation section, and the ablations of the design choices it argues
// for.
//
// Usage:
//
//	experiments                      # run everything (slow: full warmups)
//	experiments -run table5 -quick   # one experiment, scaled-down runs
//	experiments -list
//
// Experiments: table3 fig3 fig4 fig5 table4 fig6 fig7 fig8 table5 fig10
// fig11 fig1 fig12 ablations codecs irregular. The irregular study
// re-runs the Figure 6 / Table 5 terms over the linked-data-structure
// suite (ptrchase hashprobe btree srvmix) once per registered prefetch
// engine; -prefetcher pins the engine the other studies use.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cmpsim/internal/audit"
	"cmpsim/internal/cache"
	"cmpsim/internal/core"
	"cmpsim/internal/faultinject"
	"cmpsim/internal/fleet"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/report"
	"cmpsim/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	// All work happens in run so deferred cleanup (CPU profile, store
	// close) executes before the process exits.
	os.Exit(run())
}

func run() int {
	var (
		runNames   = flag.String("run", "all", "comma-separated experiments to run, or 'all'")
		quick      = flag.Bool("quick", false, "scaled-down runs (fast, noisier)")
		seeds      = flag.Int("seeds", 0, "override seeds per data point")
		workers    = flag.Int("workers", 0, "concurrent seed simulations (0 = one per CPU, 1 = serial)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		list       = flag.Bool("list", false, "list experiment names and exit")
		format     = flag.String("format", "text", "output format: text, json or csv (csv where supported)")
		timeline   = flag.String("timeline", "", "directory for per-point interval-timeline exports (JSONL + CSV)")
		interval   = flag.Uint64("interval", 0, "telemetry interval in aggregate instructions (0 = auto: 1/50 of the window when -timeline is set)")
		progress   = flag.Bool("progress", false, "log per-point scheduler progress (start/finish/cached) to stderr")
		pointTO    = flag.Duration("point-timeout", 0, "per-seed watchdog deadline; a stuck simulation fails its point (0 = none)")
		faults     = flag.String("faultinject", "", "TEST ONLY: deterministic fault rules, e.g. 'kind=panic,bench=zeus,seed=0'")
		check      = flag.String("check", "", "runtime self-checking per seed run: off, invariants or shadow (default: the CMPSIM_CHECK environment variable)")
		storeDir   = flag.String("store", "", "shared result-store directory: finished points persist there and are reused across runs and processes")
		serveAddr  = flag.String("serve", "", "run as fleet coordinator: serve HTTP workers on this address while running the suite")
		workerMode = flag.String("worker", "", "run as fleet worker: 'pipe' (leases over stdin/stdout) or a coordinator URL; no experiments are printed")
		workerID   = flag.String("worker-id", "", "fleet worker id (default wPID)")
		fleetN     = flag.Int("fleet", 0, "spawn N local pipe-transport workers and run the suite through them")
		wRetries   = flag.Int("worker-retries", 0, "worker: retries per coordinator exchange before giving up (0 = default, -1 = none)")
		wBackoff   = flag.Duration("worker-backoff", 0, "worker: base delay between coordinator-exchange retries (0 = default)")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "coordinator: how long a drain (first SIGINT/SIGTERM) waits for in-flight points")
		benchList  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: the paper's full set; irregular names select within the irregular study)")
		pfName     = flag.String("prefetcher", "", "prefetch engine for every prefetching point: "+strings.Join(prefetch.Names(), ", ")+" (default stride; the irregular study sweeps all engines regardless)")
		coresN     = flag.Int("cores", 0, "override the simulated core count")
		warmupN    = flag.Uint64("warmup", 0, "override warmup instructions per core")
		measureN   = flag.Uint64("measure", 0, "override measured instructions per core")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}
	// Every flag error is a configuration error, not a run failure: exit
	// 2 before any simulation (or, in worker mode, any lease).
	switch *format {
	case "text", "json", "csv":
	default:
		log.Printf("unknown -format %q (want text, json or csv)", *format)
		return 2
	}
	outFormat = *format
	if *seeds < 0 {
		log.Printf("-seeds %d must be >= 0", *seeds)
		return 2
	}
	if *workers < 0 {
		log.Printf("-workers %d must be >= 0", *workers)
		return 2
	}
	if *coresN < 0 || *coresN > cache.MaxCores {
		log.Printf("-cores %d out of range: 0 (no override) or 1..%d", *coresN, cache.MaxCores)
		return 2
	}
	if *pointTO < 0 {
		log.Print("-point-timeout must be >= 0")
		return 2
	}
	if _, err := audit.ParseLevel(*check); err != nil {
		log.Printf("-check: %v", err)
		return 2
	}
	// The registry error lists the registered prefetcher names.
	if _, err := prefetch.ByName(*pfName); err != nil {
		log.Printf("-prefetcher: %v", err)
		return 2
	}
	var injector *faultinject.Injector
	if *faults != "" {
		in, err := faultinject.Parse(*faults)
		if err != nil {
			log.Print(err)
			return 2
		}
		injector = in
	}
	if *fleetN < 0 {
		log.Printf("-fleet %d must be >= 0", *fleetN)
		return 2
	}
	if *workerMode != "" && (*fleetN > 0 || *serveAddr != "") {
		log.Print("-worker excludes -fleet and -serve")
		return 2
	}
	if *fleetN > 0 && *serveAddr != "" {
		log.Print("-fleet and -serve are mutually exclusive")
		return 2
	}
	if *workerMode != "" {
		if *storeDir != "" {
			log.Print("-store belongs on the coordinator, not on workers")
			return 2
		}
		return runWorkerMode(*workerMode, *workerID, *check, injector, *workers, *wRetries, *wBackoff, *progress)
	}

	o := core.DefaultOptions()
	if *quick {
		o = core.QuickOptions()
	}
	if *coresN > 0 {
		o.Cores = *coresN
	}
	if *warmupN > 0 {
		o.Warmup = *warmupN
	}
	if *measureN > 0 {
		o.Measure = *measureN
	}
	if *seeds > 0 {
		o.Seeds = *seeds
	}
	o.PointTimeout = *pointTO
	o.CheckLevel = *check
	o.PrefetcherKind = *pfName
	o.TelemetryInterval = *interval
	if *timeline != "" && o.TelemetryInterval == 0 {
		o.TelemetryInterval = o.Measure * uint64(o.Cores) / 50
		if o.TelemetryInterval == 0 {
			o.TelemetryInterval = 1
		}
	}

	benches := core.Benchmarks()
	if *benchList != "" {
		// Any registered workload is addressable, not just the paper's
		// eight: the irregular suite's names route to the irregular study.
		names := workload.Names()
		valid := make(map[string]bool, len(names))
		for _, b := range names {
			valid[b] = true
		}
		benches = nil
		for _, b := range strings.Split(*benchList, ",") {
			b = strings.TrimSpace(b)
			if !valid[b] {
				log.Printf("unknown benchmark %q in -benchmarks (have %v)", b, names)
				return 2
			}
			benches = append(benches, b)
		}
	}

	// One scheduler runs the whole suite, so studies that read the same
	// points (table3/fig3/fig5, fig7/table5, every study's Base runs)
	// simulate them once.
	sched := core.NewScheduler(*workers)
	defer sched.Close()
	all := experimentTable(sched, o, benches)
	if *list {
		var names []string
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, " "))
		return 0
	}

	var selected []string
	if *runNames == "all" {
		for n := range all {
			selected = append(selected, n)
		}
		sort.Strings(selected)
	} else {
		for _, name := range strings.Split(*runNames, ",") {
			selected = append(selected, strings.TrimSpace(name))
		}
	}
	// Validate every name, and that each can print in the chosen format,
	// before simulating anything.
	var noCSV []string
	for _, name := range selected {
		e, ok := all[name]
		if !ok {
			log.Printf("unknown experiment %q (use -list)", name)
			return 2
		}
		if !e.hasCSV {
			noCSV = append(noCSV, name)
		}
	}
	if outFormat == "csv" && len(noCSV) > 0 {
		log.Printf("-format csv: no CSV form for %s (use -format json)", strings.Join(noCSV, ", "))
		return 2
	}

	if *timeline != "" {
		if err := os.MkdirAll(*timeline, 0o755); err != nil {
			log.Print(err)
			return 1
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			log.Print(err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}()
	}

	if injector != nil {
		sched.SetFaultHook(injector.Hook)
		sched.SetStateFaultHook(injector.StateFault)
		fmt.Fprintln(os.Stderr, "[faultinject active: results are intentionally degraded]")
	}
	var fstore *fleet.Store
	if *storeDir != "" {
		st, err := fleet.OpenStore(*storeDir, 0)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer st.Close()
		fstore = st
		sched.SetPointStore(st)
		fmt.Fprintf(os.Stderr, "[store %s: %d points loaded, %d corrupt records skipped]\n",
			st.Dir(), st.Loaded(), st.Skipped())
	}
	var coord *fleet.Coordinator
	var fleetWait func()
	var drained atomic.Bool
	if *fleetN > 0 || *serveAddr != "" {
		// The journal lives beside the store's shards: a coordinator
		// killed mid-sweep and restarted with the same -store replays it
		// (plus the store scan) and resumes with nothing re-simulated.
		var journal *fleet.Journal
		if *storeDir != "" {
			j, err := fleet.OpenJournal(*storeDir)
			if err != nil {
				log.Print(err)
				return 1
			}
			defer j.Close()
			journal = j
			fmt.Fprintf(os.Stderr, "[journal %s: %s]\n", j.Path(), j)
		}
		coord = fleet.NewCoordinator(fleet.Config{
			Store: fstore, Journal: journal, ExpiryInterval: time.Second,
			Fault: injector,
			Crash: func(kind faultinject.Kind) {
				// A real crash: no store flush, no journal truncation, no
				// deferred cleanup. Everything durable is already fsync'd.
				fmt.Fprintf(os.Stderr, "[fleet: injected coordinator crash (%s)]\n", kind)
				os.Exit(7)
			},
		})
		sched.SetPointRunner(coord.RunPoint)
		// First SIGINT/SIGTERM drains: no new leases, in-flight points get
		// -drain-timeout to finish, then the suite ends with exit 4. A
		// second signal exits immediately with 130.
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			go func() {
				<-sig
				os.Exit(130)
			}()
			fmt.Fprintf(os.Stderr, "[drain: signal received; waiting up to %v for in-flight points (signal again to exit now)]\n", *drainTO)
			drained.Store(true)
			abandoned := coord.DrainAndWait(*drainTO)
			fmt.Fprintf(os.Stderr, "[drain: complete; %d points abandoned (journal + store keep them resumable)]\n", abandoned)
		}()
	}
	if *fleetN > 0 {
		wait, err := spawnFleet(coord, *fleetN, workerArgs(*check, *faults))
		if err != nil {
			log.Print(err)
			return 1
		}
		fleetWait = wait
	}
	if *serveAddr != "" {
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer ln.Close()
		srv := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "[fleet coordinator on http://%s — start workers with -worker http://ADDR]\n", ln.Addr())
	}
	if obs := buildObserver(*progress, *timeline); obs != nil {
		sched.SetObserver(obs)
	}
	suiteStart := time.Now()
	for _, name := range selected {
		before := sched.Stats()
		start := time.Now()
		all[name].run()
		d := sched.Stats()
		fmt.Fprintf(os.Stderr, "[%s done in %s: %d points simulated (%d runs), %d served from cache, %d from store, %d failed; block sizes %d shared, %d computed, %d tables evicted; systems %d recycled, %d fresh]\n",
			name, time.Since(start).Round(time.Millisecond),
			d.Unique-before.Unique, d.SeedRuns-before.SeedRuns,
			d.Cached()-before.Cached(), d.FromStore-before.FromStore,
			d.Failed-before.Failed,
			d.SizesShared-before.SizesShared, d.SizesComputed-before.SizesComputed,
			d.TablesEvicted-before.TablesEvicted,
			d.StorageRecycled-before.StorageRecycled, d.StorageFresh-before.StorageFresh)
		fmt.Println()
	}
	if coord != nil {
		coord.Shutdown()
		if fleetWait != nil {
			fleetWait()
		}
		if *serveAddr != "" {
			// Give HTTP workers one poll cycle to pick up their done reply
			// before the listener goes away with the process.
			time.Sleep(2 * fleet.DefaultPollInterval)
		}
		report.Fleet(os.Stderr, coord.Stats())
	}
	total := sched.Stats()
	fmt.Fprintf(os.Stderr, "[suite done in %s: %d unique points, %d cached requests, %d from store, %d failed, %d workers]\n",
		time.Since(suiteStart).Round(time.Millisecond),
		total.Unique, total.Cached(), total.FromStore, total.Failed, sched.Workers())
	if drained.Load() {
		log.Print("sweep drained by signal; rerun with the same -store to resume")
		return 4
	}
	if total.Failed > 0 {
		log.Printf("%d point(s) failed; their rows are marked FAILED", total.Failed)
		return 1
	}
	return 0
}

// outFormat selects text (paper-style tables), json, or csv output.
var outFormat = "text"

// buildObserver assembles the scheduler progress observer: stderr
// progress lines (-progress) and/or per-point timeline exports
// (-timeline DIR). Returns nil when neither is requested.
func buildObserver(progress bool, timelineDir string) core.Observer {
	if !progress && timelineDir == "" {
		return nil
	}
	return func(ev core.PointEvent) {
		if progress {
			switch ev.Kind {
			case core.PointStart:
				fmt.Fprintf(os.Stderr, "[point %s/%s started (%d seeds)]\n",
					ev.Benchmark, ev.Mechanisms.Label(), ev.Seeds)
			case core.PointFinish:
				if ev.Err != nil {
					fmt.Fprintf(os.Stderr, "[point %s/%s failed: %v]\n",
						ev.Benchmark, ev.Mechanisms.Label(), ev.Err)
				} else {
					fmt.Fprintf(os.Stderr, "[point %s/%s done in %s]\n",
						ev.Benchmark, ev.Mechanisms.Label(), ev.Wall.Round(time.Millisecond))
				}
			case core.PointCached:
				fmt.Fprintf(os.Stderr, "[point %s/%s cached]\n",
					ev.Benchmark, ev.Mechanisms.Label())
			case core.PointRestored:
				fmt.Fprintf(os.Stderr, "[point %s/%s restored from store]\n",
					ev.Benchmark, ev.Mechanisms.Label())
			}
		}
		if timelineDir != "" && ev.Kind == core.PointFinish && ev.Point != nil {
			if err := exportPointTimelines(timelineDir, ev); err != nil {
				log.Printf("timeline export: %v", err)
			}
		}
	}
}

// exportPointTimelines writes one JSONL + CSV pair per seed run of a
// finished point. Filenames carry a hash of the point's canonical
// options so points that share benchmark and mechanisms (e.g. the
// finite- and infinite-bandwidth variants) do not collide.
func exportPointTimelines(dir string, ev core.PointEvent) error {
	h := fnv.New32a()
	fmt.Fprintf(h, "%+v", ev.Options)
	for i := range ev.Point.Runs {
		m := &ev.Point.Runs[i]
		if len(m.Timeline) == 0 {
			continue
		}
		meta := report.TimelineMeta{Benchmark: m.Benchmark, Label: m.Label, Seed: m.Seed}
		base := filepath.Join(dir, fmt.Sprintf("%s__%s__%08x__s%d",
			m.Benchmark, m.Label, h.Sum32(), m.Seed))
		for ext, write := range map[string]func(io.Writer) error{
			".jsonl": func(w io.Writer) error { return report.TimelineJSONL(w, meta, m.Timeline) },
			".csv":   func(w io.Writer) error { return report.TimelineCSV(w, meta, m.Timeline) },
		} {
			f, err := os.Create(base + ext)
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
	}
	return nil
}

// experiment is one study of the suite: run simulates it and prints its
// rows in outFormat. hasCSV reports whether it has a CSV form, so
// -format csv on one without is refused before anything simulates.
type experiment struct {
	run    func()
	hasCSV bool
}

// study builds an experiment from the call that simulates a study's
// rows and the renderers that print them to stdout; csv is nil for a
// study with no CSV form.
func study[R any](rows func() R, text func(io.Writer, R), csv func(io.Writer, R) error) experiment {
	return experiment{hasCSV: csv != nil, run: func() {
		r := rows()
		var err error
		switch outFormat {
		case "json":
			err = report.WriteJSON(os.Stdout, r)
		case "csv":
			err = csv(os.Stdout, r)
		default:
			text(os.Stdout, r)
		}
		if err != nil {
			log.Fatal(err)
		}
	}}
}

// experimentTable maps experiment names to the studies they print, all
// submitting to s. benches restricts most studies' benchmark set; fig10,
// the core sweeps and the ablations pin their own benchmarks.
func experimentTable(s *core.Scheduler, o core.Options, benches []string) map[string]experiment {
	coreCounts := []int{1, 2, 4, 8, 16}
	compression := func() []core.CompressionRow { return s.CompressionStudy(benches, o) }
	interaction := func() []core.InteractionRow { return s.InteractionStudy(benches, o) }
	coreSweep := func(title string) func(io.Writer, []core.CoreSweepRow) {
		return func(w io.Writer, rows []core.CoreSweepRow) { report.CoreSweep(w, title, rows) }
	}
	return map[string]experiment{
		"table3": study(compression, report.Table3, report.CompressionCSV),
		"fig3":   study(compression, report.Fig3, report.CompressionCSV),
		"fig4": study(func() []core.BandwidthRow { return s.BandwidthStudy(benches, o) },
			report.Fig4, nil),
		"fig5": study(compression, report.Fig5, report.CompressionCSV),
		"table4": study(func() []core.PrefetchPropsRow { return s.PrefetchProperties(benches, o) },
			report.Table4, nil),
		"fig6": study(func() []core.PrefetchSpeedupRow { return s.PrefetchStudy(benches, o) },
			report.Fig6, nil),
		"fig7": study(interaction, report.Fig7, report.InteractionCSV),
		"fig8": study(func() []core.MissClassRow { return s.MissClassification(benches, o) },
			report.Fig8, nil),
		"table5": study(interaction, report.Table5, report.InteractionCSV),
		"fig10": study(func() []core.AdaptiveRow { return s.AdaptiveStudy(core.CommercialBenchmarks(), o) },
			report.Fig10, nil),
		"fig11": study(func() []core.BandwidthSweepRow { return s.BandwidthSweep(benches, []int{10, 20, 40, 80}, o) },
			report.Fig11, report.BandwidthSweepCSV),
		"fig1": study(func() []core.CoreSweepRow { return s.CoreSweep("zeus", coreCounts, o) },
			coreSweep("Figure 1 (zeus)"), report.CoreSweepCSV),
		"ablations": study(func() []core.AblationRow { return s.AblationStudy(o) },
			report.Ablations, nil),
		"codecs": study(func() []core.CodecRow { return s.CodecStudy(benches, o) },
			report.CodecTable, report.CodecCSV),
		"irregular": study(func() []core.IrregularRow {
			// -benchmarks may mix suites; only its irregular names apply
			// here. With none selected the study runs the whole suite.
			irr := make(map[string]bool)
			for _, b := range core.IrregularBenchmarks() {
				irr[b] = true
			}
			var sel []string
			for _, b := range benches {
				if irr[b] {
					sel = append(sel, b)
				}
			}
			if len(sel) == 0 {
				sel = core.IrregularBenchmarks()
			}
			return s.IrregularStudy(sel, o)
		}, report.IrregularTable, report.IrregularCSV),
		// Rows are apache's sweep then jbb's, one per core count.
		"fig12": study(func() []core.CoreSweepRow {
			return append(s.CoreSweep("apache", coreCounts, o), s.CoreSweep("jbb", coreCounts, o)...)
		}, func(w io.Writer, rows []core.CoreSweepRow) {
			coreSweep("Figure 12 (apache)")(w, rows[:len(coreCounts)])
			coreSweep("Figure 12 (jbb)")(w, rows[len(coreCounts):])
		}, report.CoreSweepCSV),
	}
}

package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cmpsim/internal/codec"
)

// updateGolden regenerates testdata/golden.json from the current
// simulator instead of comparing against it. Run either
//
//	go test ./internal/sim -run TestGoldenMetrics -update
//
// or set CMPSIM_UPDATE_GOLDEN=1. Intentional timing-domain changes
// regenerate the file in one command; review the diff like any other
// code change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json with current results")

// goldenRun pins one configuration's headline metrics. The integer
// tick domain makes every run bit-deterministic, so the comparison is
// exact — including the float64 fields, which are pure functions of
// integer counters (any mismatch at all means the timing model
// changed).
type goldenRun struct {
	Cycles           float64 `json:"cycles"`
	IPC              float64 `json:"ipc"`
	Instructions     uint64  `json:"instructions"`
	L2Misses         uint64  `json:"l2_misses"`
	L2CompressedHits uint64  `json:"l2_compressed_hits"`
	MemFetches       uint64  `json:"mem_fetches"`
	OffChipBytes     uint64  `json:"off_chip_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`
	LinkQueueDelay   float64 `json:"link_queue_delay"`
	DRAMQueueDelay   float64 `json:"dram_queue_delay"`
}

func pinned(m Metrics) goldenRun {
	return goldenRun{
		Cycles:           m.Cycles,
		IPC:              m.IPC,
		Instructions:     m.Instructions,
		L2Misses:         m.L2Misses,
		L2CompressedHits: m.L2CompressedHits,
		MemFetches:       m.MemFetches,
		OffChipBytes:     m.OffChipBytes,
		CompressionRatio: m.CompressionRatio,
		LinkQueueDelay:   m.LinkQueueDelay,
		DRAMQueueDelay:   m.DRAMQueueDelay,
	}
}

// goldenConfigs covers the four mechanism corners of the paper on
// scaled-down systems (one commercial and one scientific workload),
// plus the two L2 paths those corners miss: a plain L2 handed
// data-model sizes by link compression (it must store every line at
// full size), and the compressed L2's invalid-tag victim history
// feeding adaptive prefetching's harmful-prefetch test. The codec rows
// run each non-FPC codec under cache and link compression with
// prefetching, on a benchmark whose stores dirty blocks, so every
// codec's size path (version 0 and dirtied versions) is pinned. The
// source rows run each irregular reference source (its profile's own
// kind) and the engine rows each non-stride prefetch engine, under
// different L2 corners, so every construction path of the caches, the
// generators and the engines is pinned.
func goldenConfigs() map[string]Config {
	return map[string]Config{
		"zeus-base":                   smallConfig("zeus"),
		"zeus-pf-compression":         smallConfig("zeus").WithMechanisms(true, true, true, false),
		"jbb-cache-compr":             smallConfig("jbb").WithMechanisms(true, false, false, false),
		"mgrid-adaptive-pf":           smallConfig("mgrid").WithMechanisms(false, false, true, true),
		"zeus-link-compr":             smallConfig("zeus").WithMechanisms(false, true, false, false),
		"jbb-adaptive-compression":    smallConfig("jbb").WithMechanisms(true, true, true, true),
		"jbb-pf-compression-bdi":      codecConfig("jbb", "bdi"),
		"zeus-pf-compression-zca":     codecConfig("zeus", "zca"),
		"apache-pf-compression-cpack": codecConfig("apache", "cpack"),
		"ptrchase-pf-compression":     smallConfig("ptrchase").WithMechanisms(true, true, true, false),
		"hashprobe-adaptive-link":     smallConfig("hashprobe").WithMechanisms(false, true, true, true),
		"btree-cache-compr":           smallConfig("btree").WithMechanisms(true, false, false, false),
		"srvmix-adaptive-compression": smallConfig("srvmix").WithMechanisms(true, true, true, true),
		"zeus-pf-sequential":          engineConfig("zeus", "sequential", false),
		"jbb-pf-stream-compression":   engineConfig("jbb", "stream", true),
		"ptrchase-markov-compression": engineConfig("ptrchase", "markov", true),
	}
}

// engineConfig is smallConfig with prefetching by engine kind, adaptive
// throttling on, over the compressed L2 or the plain one (whose victim
// FIFO the adaptive controller then reads).
func engineConfig(bench, kind string, compressed bool) Config {
	cfg := smallConfig(bench).WithMechanisms(compressed, compressed, true, true)
	cfg.PrefetcherKind = kind
	return cfg
}

// codecConfig is smallConfig with cache and link compression and
// prefetching under codec name, at the codec's own decompression
// latency (as internal/core configures a non-default codec).
func codecConfig(bench, name string) Config {
	cfg := smallConfig(bench).WithMechanisms(true, true, true, false)
	cfg.Codec = name
	cfg.DecompressionCycles = codec.MustByName(name).DecompressionCycles()
	return cfg
}

func TestGoldenMetrics(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	update := *updateGolden || os.Getenv("CMPSIM_UPDATE_GOLDEN") != ""

	got := make(map[string]goldenRun)
	for name, cfg := range goldenConfigs() {
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = pinned(m)
	}

	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d runs", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update or CMPSIM_UPDATE_GOLDEN=1)", err)
	}
	want := make(map[string]goldenRun)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d runs, test produced %d (regenerate with -update)", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in golden file but not produced (regenerate with -update)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: metrics drifted from golden pin\n got %+v\nwant %+v\n(intentional? regenerate with -update)", name, g, w)
		}
	}
}

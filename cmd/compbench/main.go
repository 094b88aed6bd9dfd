// Command compbench races the registered line codecs against each
// other: a throughput/ratio bakeoff over the paper's eight synthetic
// workload value profiles, or over an external corpus file.
//
// Usage:
//
//	compbench                     # bakeoff over the 8 paper profiles
//	compbench -lines 65536        # larger corpus per profile
//	compbench -f corpus.bin       # bench an external file instead
//	compbench -csv results.csv    # also write machine-readable rows
//
// Output is a compbench-style availability table,
//
//	codec  avail  compress   decompress
//	fpc    yes    1.93GiB/s  2.10GiB/s
//	...
//
// followed (always) by per-(codec, profile) rows; -csv writes the same
// rows as CSV with header codec,profile,ratio,compress_gibps,
// decompress_gibps. Every encoded line is decoded again after timing
// and compared with its input; a mismatch exits 1.
//
// A last table counts FPC word patterns per corpus (zero-run words
// individually), naming the eight patterns zero-run, se4, se8, se16,
// zero-pad16, two-se8, rep-byte and uncompressed — which word shapes
// make a file compressible.
//
// External files are chunked into 64-byte lines; a short tail line is
// zero-padded.
package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/workload"
)

// corpus is one named set of 64-byte lines to push through every codec.
type corpus struct {
	name  string
	lines [][]byte
}

// row is one (codec, corpus) measurement.
type row struct {
	codec, corpus string
	ratio         float64 // input bytes / compressed segment bytes
	compGiBps     float64
	decompGiBps   float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("compbench: ")
	var (
		file   = flag.String("f", "", "bench this file instead of the synthetic profiles")
		lines  = flag.Int("lines", 16384, "synthetic lines per profile")
		seed   = flag.Int64("seed", 1, "synthetic workload seed")
		csvOut = flag.String("csv", "", "write per-(codec,corpus) rows to this CSV file ('-' = stdout)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "compbench: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *lines < 1 {
		log.Fatalf("-lines %d must be positive", *lines)
	}

	var corpora []corpus
	if *file != "" {
		c, err := fileCorpus(*file)
		if err != nil {
			log.Fatal(err)
		}
		corpora = []corpus{c}
	} else {
		for _, name := range workload.PaperOrder() {
			corpora = append(corpora, syntheticCorpus(name, *lines, *seed))
		}
	}

	var rows []row
	for _, cdc := range codec.All() {
		for _, cp := range corpora {
			r, err := bench(cdc, cp)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, r)
		}
	}

	printAvailability(os.Stdout, rows)
	fmt.Println()
	printRows(os.Stdout, rows)
	fmt.Println()
	printPatterns(os.Stdout, corpora)
	if *csvOut != "" {
		if err := writeCSV(*csvOut, rows); err != nil {
			log.Fatal(err)
		}
	}
}

// syntheticCorpus draws n lines from the named profile's calibrated
// value model. Lines are generated with the default codec's model so
// every codec compresses the identical byte stream — the bakeoff
// varies the codec, not the corpus.
func syntheticCorpus(name string, n int, seed int64) corpus {
	d := workload.NewDataModelCodec(workload.MustByName(name), seed, codec.Default())
	cp := corpus{name: name, lines: make([][]byte, n)}
	for i := range cp.lines {
		cp.lines[i] = make([]byte, codec.LineSize)
		d.FillLine(cache.BlockAddr(i), cp.lines[i])
	}
	return cp
}

// fileCorpus chunks a file into 64-byte lines, zero-padding the tail.
func fileCorpus(path string) (corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return corpus{}, err
	}
	if len(data) == 0 {
		return corpus{}, fmt.Errorf("%s: empty input", path)
	}
	cp := corpus{name: filepath.Base(path)}
	for off := 0; off < len(data); off += codec.LineSize {
		line := make([]byte, codec.LineSize)
		copy(line, data[off:min(off+codec.LineSize, len(data))])
		cp.lines = append(cp.lines, line)
	}
	return cp, nil
}

// bench measures one codec over one corpus: compressed ratio plus
// encode and strict-decode throughput in GiB/s of uncompressed data.
// It fails if any line does not decode back to exactly itself.
func bench(cdc codec.Codec, cp corpus) (row, error) {
	// Encode pass (timed): also captures the streams for the decode
	// pass. Buffers are pre-sized so the timed region measures the
	// codec, not the allocator.
	encs := make([][]byte, len(cp.lines))
	segs := make([]int, len(cp.lines))
	for i := range encs {
		encs[i] = make([]byte, 0, codec.MaxSegments*codec.SegmentSize)
	}
	totalSegs := 0
	start := time.Now()
	for i, line := range cp.lines {
		encs[i], segs[i] = cdc.AppendEncode(encs[i][:0], line)
	}
	encElapsed := time.Since(start)
	for _, s := range segs {
		totalSegs += s
	}

	// Decode pass (timed).
	dst := make([]byte, codec.LineSize)
	start = time.Now()
	for i, enc := range encs {
		if err := cdc.DecodeInto(dst, enc, segs[i]); err != nil {
			return row{}, fmt.Errorf("%s/%s line %d: decode: %w", cdc.Name(), cp.name, i, err)
		}
	}
	decElapsed := time.Since(start)

	// Round-trip pass (untimed, so the throughput columns stay
	// comparable): every line must decode to exactly its input.
	for i, enc := range encs {
		if err := cdc.DecodeInto(dst, enc, segs[i]); err != nil {
			return row{}, fmt.Errorf("%s/%s line %d: decode: %w", cdc.Name(), cp.name, i, err)
		}
		if !bytes.Equal(dst, cp.lines[i]) {
			return row{}, fmt.Errorf("%s/%s line %d: decodes to %x, want %x",
				cdc.Name(), cp.name, i, dst, cp.lines[i])
		}
	}

	inBytes := float64(len(cp.lines) * codec.LineSize)
	const gib = 1 << 30
	return row{
		codec:       cdc.Name(),
		corpus:      cp.name,
		ratio:       inBytes / float64(totalSegs*codec.SegmentSize),
		compGiBps:   inBytes / gib / encElapsed.Seconds(),
		decompGiBps: inBytes / gib / decElapsed.Seconds(),
	}, nil
}

// printAvailability prints the compbench-style summary table: every
// registered codec with its mean throughput across the corpora.
func printAvailability(w io.Writer, rows []row) {
	type agg struct {
		comp, decomp float64
		n            int
	}
	sums := map[string]*agg{}
	for _, r := range rows {
		a := sums[r.codec]
		if a == nil {
			a = &agg{}
			sums[r.codec] = a
		}
		a.comp += r.compGiBps
		a.decomp += r.decompGiBps
		a.n++
	}
	fmt.Fprintf(w, "%-6s %-6s %-10s %s\n", "codec", "avail", "compress", "decompress")
	for _, cdc := range codec.All() {
		a := sums[cdc.Name()]
		if a == nil || a.n == 0 {
			fmt.Fprintf(w, "%-6s %-6s\n", cdc.Name(), "no")
			continue
		}
		fmt.Fprintf(w, "%-6s %-6s %-10s %s\n", cdc.Name(), "yes",
			fmt.Sprintf("%.2fGiB/s", a.comp/float64(a.n)),
			fmt.Sprintf("%.2fGiB/s", a.decomp/float64(a.n)))
	}
}

// printRows prints the per-(codec, corpus) detail.
func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-6s %-10s %8s %12s %12s\n", "codec", "corpus", "ratio", "compress", "decompress")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-10s %7.2fx %9.2fGiB/s %9.2fGiB/s\n",
			r.codec, r.corpus, r.ratio, r.compGiBps, r.decompGiBps)
	}
}

// printPatterns prints FPC's word-pattern counts per corpus: one row
// per corpus, one column per pattern.
func printPatterns(w io.Writer, corpora []corpus) {
	var fpc codec.FPC
	fmt.Fprintf(w, "%-10s", "corpus")
	for p := codec.FPCPattern(0); p < 8; p++ {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintln(w)
	for _, cp := range corpora {
		var counts [8]int
		for _, line := range cp.lines {
			for p, n := range fpc.PatternHistogram(line) {
				counts[p] += n
			}
		}
		fmt.Fprintf(w, "%-10s", cp.name)
		for _, n := range counts {
			fmt.Fprintf(w, " %12d", n)
		}
		fmt.Fprintln(w)
	}
}

// writeCSV writes the detail rows as CSV to path ('-' = stdout).
func writeCSV(path string, rows []row) error {
	f := os.Stdout
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"codec", "profile", "ratio", "compress_gibps", "decompress_gibps"}); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for _, r := range rows {
		if err := cw.Write([]string{r.codec, r.corpus, ff(r.ratio), ff(r.compGiBps), ff(r.decompGiBps)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Compressibility: inspect the calibrated data models behind Table 3 —
// for each benchmark, sample synthetic cache lines, run them through
// the real FPC codec, and print the segment-size distribution, the
// dominant word patterns, and the resulting effective-cache-size ratio.
//
//	go run ./examples/compressibility
package main

import (
	"fmt"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/workload"
)

func main() {
	fmt.Println("FPC on the synthetic benchmark data (1024 sampled lines each)")
	fmt.Println()
	fmt.Printf("%-8s %-6s  %-8s %-42s %s\n", "bench", "class", "ratio", "segment histogram 1..8", "top patterns")
	var fpc codec.FPC
	for _, name := range workload.PaperOrder() {
		p := workload.MustByName(name)
		d := workload.NewDataModelCodec(p, 1, fpc)
		var sizeHist [codec.MaxSegments + 1]int
		var pats [8]int
		for i := 0; i < 1024; i++ {
			line := d.Line(cache.BlockAddr(0x70000000 + i))
			sizeHist[fpc.CompressedSizeSegments(line)]++
			h := fpc.PatternHistogram(line)
			for j, c := range h {
				pats[j] += c
			}
		}
		hist := ""
		for s := 1; s <= codec.MaxSegments; s++ {
			hist += fmt.Sprintf("%5d", sizeHist[s])
		}
		best, second := topTwo(pats[:])
		fmt.Printf("%-8s %-6s  %-8.2f %s  %s, %s\n",
			name, short(p.Class), d.PackedRatio(2048), hist,
			codec.FPCPattern(best), codec.FPCPattern(second))
	}
	fmt.Println()
	fmt.Println("Commercial data (pointers, counters, zeros) compresses well;")
	fmt.Println("SPEComp floating-point data is mostly 'uncompressed' words —")
	fmt.Println("the paper's Table 3 split, produced by the same FPC hardware.")
}

func short(c workload.Class) string {
	if c == workload.Commercial {
		return "comm"
	}
	return "fp"
}

func topTwo(counts []int) (best, second int) {
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	second = -1
	for i, c := range counts {
		if i == best {
			continue
		}
		if second == -1 || c > counts[second] {
			second = i
		}
	}
	return
}

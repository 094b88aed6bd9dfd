package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runs(workload, metric string, host string, vals ...float64) []benchRun {
	var rs []benchRun
	for _, v := range vals {
		rs = append(rs, benchRun{
			prov:    provenance{Workload: workload, CPUModel: host, NProc: 2},
			metrics: map[string]float64{metric: v},
		})
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	mips := boundDef{Name: "sim_mips", Better: "higher", Bound: 0.1}
	setup := boundDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name          string
		b             boundDef
		parent, chnge []float64
		want          string
	}{
		{"faster in every pair", mips, tight, []float64{111, 112, 110, 111, 113, 109, 111, 112, 110, 111}, improved},
		{"same code", mips, tight, []float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, withinBound},
		{"small loss inside the bound", mips, tight, []float64{96, 97, 95, 96, 98, 94, 96, 97, 95, 96}, withinBound},
		{"loss beyond the bound", mips, tight, []float64{85, 86, 84, 85, 87, 83, 85, 86, 84, 85}, regressed},
		{"noisy parent, small loss", mips, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, []float64{95, 96, 94, 95, 97, 93, 95, 96, 94, 95}, unresolved},
		{"noisy parent, change beats every parent run", mips, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, []float64{150, 151, 152, 150, 151, 152, 150, 151, 152, 150}, improved},
		{"lower is better: slower set-up", setup, []float64{1, 1.01, 0.99, 1, 1}, []float64{1.4, 1.41, 1.39, 1.4, 1.4}, regressed},
		{"lower is better: faster set-up", setup, []float64{1, 1.01, 0.99, 1, 1}, []float64{0.5, 0.51, 0.49, 0.5, 0.5}, improved},
	} {
		rows := compareRuns(runs("w", c.b.Name, "cpu", c.parent...), runs("w", c.b.Name, "cpu", c.chnge...), []boundDef{c.b})
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", c.name, len(rows))
		}
		if rows[0].verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, rows[0].verdict, c.want, rows[0])
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := runs("w", "sim_mips", "cpu A", 1, 2)
	b := runs("w", "sim_mips", "cpu B", 1, 2)
	if err := sameHost(a, b); err == nil {
		t.Fatal("runs from two CPU models were accepted")
	}
	b = runs("w", "sim_mips", "cpu A", 1, 2)
	b[0].prov.NProc = 4
	if err := sameHost(a, b); err == nil {
		t.Fatal("runs with different core counts were accepted")
	}
}

// TestReadRuns parses captured run outputs: each result line pairs with
// the provenance line before it; table lines are skipped.
func TestReadRuns(t *testing.T) {
	var sb strings.Builder
	for i, v := range []float64{10, 11} {
		p, _ := json.Marshal(map[string]provenance{"provenance": {Workload: "zeus-pfcompr", Seed: int64(i + 1), CPUModel: "x", NProc: 2}})
		r, _ := json.Marshal(resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"sim_mips": {v, "Minstr/s"}}})
		sb.WriteString(string(p) + "\nmetric value unit n\nsim_mips 10 Minstr/s 3\n" + string(r) + "\n")
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].prov.Seed != 2 || got[1].metrics["sim_mips"] != 11 {
		t.Fatalf("readRuns = %+v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

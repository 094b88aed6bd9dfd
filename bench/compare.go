package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// boundDef is one end-to-end metric's entry in BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]boundDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// benchRun is one run's provenance and result line.
type benchRun struct {
	prov    provenance
	metrics map[string]float64
}

// readRuns collects every result line in a file of run outputs, each
// paired with the provenance line that preceded it.
func readRuns(path string) ([]benchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []benchRun
	var prov *provenance
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if len(line) == 0 || line[0] != '{' || json.Unmarshal(line, &probe) != nil {
			continue
		}
		if raw, ok := probe["provenance"]; ok {
			var p provenance
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			prov = &p
			continue
		}
		if _, ok := probe["metrics"]; !ok {
			continue
		}
		var res resultLine
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if prov == nil {
			return nil, fmt.Errorf("%s: result line without a provenance line before it", path)
		}
		r := benchRun{prov: *prov, metrics: map[string]float64{}}
		for k, v := range res.Metrics {
			r.metrics[k] = v.Value
		}
		runs = append(runs, r)
		prov = nil
	}
	return runs, sc.Err()
}

// sameHost refuses runs from hosts whose CPU model or core count differ.
func sameHost(a, b []benchRun) error {
	all := append(append([]benchRun(nil), a...), b...)
	if len(all) == 0 {
		return fmt.Errorf("no runs to compare")
	}
	ref := all[0].prov
	for _, r := range all[1:] {
		if r.prov.CPUModel != ref.CPUModel || r.prov.NProc != ref.NProc {
			return fmt.Errorf("runs come from different hosts (%q x%d vs %q x%d); compare runs of one host only",
				ref.CPUModel, ref.NProc, r.prov.CPUModel, r.prov.NProc)
		}
	}
	return nil
}

// Verdicts of one (metric, workload) comparison.
const (
	improved    = "improved"
	withinBound = "within bound"
	regressed   = "regressed"
	unresolved  = "unresolved"
)

// comparison is one (metric, workload) row.
type comparison struct {
	workload, metric     string
	parentMed, changeMed float64
	parentQ1, parentQ3   float64
	changeQ1, changeQ3   float64
	wins, pairs          int
	verdict              string
}

// compareRuns applies the paired-run rule to every end-to-end metric of
// every workload both sides ran. Run i of the parent pairs with run i
// of the change. A gain needs wins in at least nine tenths of the pairs
// and a median difference larger than the parent's interquartile
// spread. Otherwise the change regresses when its median is worse than
// the parent's by more than the bound, unless the parent's own spread is
// wider than the bound: then the row is unresolved, except when every
// change run beats every parent run.
func compareRuns(parent, change []benchRun, bounds []boundDef) []comparison {
	byWorkload := func(runs []benchRun) (map[string][]benchRun, []string) {
		m := map[string][]benchRun{}
		var order []string
		for _, r := range runs {
			if _, seen := m[r.prov.Workload]; !seen {
				order = append(order, r.prov.Workload)
			}
			m[r.prov.Workload] = append(m[r.prov.Workload], r)
		}
		return m, order
	}
	pw, order := byWorkload(parent)
	cw, _ := byWorkload(change)
	var rows []comparison
	for _, wl := range order {
		if cw[wl] == nil {
			continue
		}
		for _, b := range bounds {
			pv, cv := values(pw[wl], b.Name), values(cw[wl], b.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			rows = append(rows, compareMetric(wl, b, pv, cv))
		}
	}
	return rows
}

func values(runs []benchRun, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.metrics[metric]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func compareMetric(workload string, b boundDef, pv, cv []float64) comparison {
	c := comparison{workload: workload, metric: b.Name, parentMed: median(pv), changeMed: median(cv)}
	c.parentQ1, c.parentQ3 = quartiles(pv)
	c.changeQ1, c.changeQ3 = quartiles(cv)
	// better reports whether x reads better than y for this metric.
	better := func(x, y float64) bool {
		if b.Better == "lower" {
			return x < y
		}
		return x > y
	}
	c.pairs = len(pv)
	if len(cv) < c.pairs {
		c.pairs = len(cv)
	}
	for i := 0; i < c.pairs; i++ {
		if better(cv[i], pv[i]) {
			c.wins++
		}
	}
	allBetter := true
	for _, x := range cv {
		for _, y := range pv {
			allBetter = allBetter && better(x, y)
		}
	}
	base := math.Abs(c.parentMed)
	spread := c.parentQ3 - c.parentQ1
	worse := ratio(c.changeMed-c.parentMed, base) // relative change, positive = higher
	if b.Better != "lower" {
		worse = -worse
	}
	switch {
	case c.wins*10 >= c.pairs*9 && better(c.changeMed, c.parentMed) && math.Abs(c.changeMed-c.parentMed) > spread:
		c.verdict = improved
	case ratio(spread, base) > b.Bound && !allBetter:
		c.verdict = unresolved
	case worse > b.Bound && !allBetter:
		c.verdict = regressed
	default:
		c.verdict = withinBound
	}
	return c
}

// compareMain prints one row per (workload, metric) and exits 1 when any
// row regressed, 2 on bad input or mismatched hosts.
func compareMain(args []string, benchJSON string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "cmpbench: usage: -compare PARENT_OUTPUTS CHANGE_OUTPUTS")
		return 2
	}
	bounds, err := loadBounds(benchJSON)
	if err != nil {
		fmt.Fprintln(stderr, "cmpbench:", err)
		return 2
	}
	parent, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "cmpbench:", err)
		return 2
	}
	change, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "cmpbench:", err)
		return 2
	}
	if err := sameHost(parent, change); err != nil {
		fmt.Fprintln(stderr, "cmpbench:", err)
		return 2
	}
	rows := compareRuns(parent, change, bounds)
	fmt.Fprintf(stdout, "%-16s %-13s %-36s %-36s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	status := 0
	for _, c := range rows {
		fmt.Fprintf(stdout, "%-16s %-13s %-36s %-36s %-7s %s\n", c.workload, c.metric,
			fmt.Sprintf("%.5g [%.5g, %.5g]", c.parentMed, c.parentQ1, c.parentQ3),
			fmt.Sprintf("%.5g [%.5g, %.5g]", c.changeMed, c.changeQ1, c.changeQ3),
			fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		if c.verdict == regressed {
			status = 1
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "cmpbench: no workload appears in both files")
		return 2
	}
	return status
}

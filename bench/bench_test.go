package main

// Smoke tests: every workload at tinySize, untraced and traced, in a
// few seconds. They keep the benchmark building and its output contract
// intact; they measure nothing. Run with `cd bench && go test ./...`.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

func tinyEnv(t *testing.T, pins digestTable) *env {
	return &env{seed: 1, size: tinySize, tmp: t.TempDir(), pins: pins, log: testLog{t}}
}

// spec is the part of BENCHMARK.json the benchmark's output must match.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []boundDef              `json:"end_to_end"`
	PerLayer  []boundDef              `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	same := func(kind string, code []metricDef, declared []boundDef) {
		if len(code) != len(declared) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(declared))
			return
		}
		for i, d := range declared {
			if code[i].name != d.Name || code[i].unit != d.Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)", kind, i, code[i].name, code[i].unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", endToEnd, s.EndToEnd)
	same("per_layer", perLayer, s.PerLayer)
	if got := workloadNames(); len(got) != len(s.Workloads) {
		t.Fatalf("workloads: code %v, BENCHMARK.json %v", got, s.Workloads)
	}
	for i, w := range s.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d: code %s, BENCHMARK.json %s", i, workloads[i].name, w.Name)
		}
	}
}

// TestWorkloadsTiny runs every workload untraced and traced and checks
// the result line: every declared metric with its unit, no failed op,
// an exact replay, and a span file.
func TestWorkloadsTiny(t *testing.T) {
	s := loadSpec(t)
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			rep, err := measure(def, tinyEnv(t, nil), 100*time.Millisecond, traced, time.Now(), nil, spans)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			defs, declared := endToEnd, s.EndToEnd
			if traced {
				defs, declared = perLayer, s.PerLayer
			}
			var out bytes.Buffer
			if err := writeReport(&out, rep, defs); err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", def.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", def.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range declared {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %+v", def.name, traced, d.Name, d.Unit, m)
				}
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(res.Metrics), len(declared))
			}
			if !traced {
				continue
			}
			if f := res.Metrics["sim.replay_fidelity"].Value; f != 1 {
				t.Errorf("%s: replay fidelity %v, want exactly 1", def.name, f)
			}
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("%s: span file not written: %v", def.name, err)
			}
		}
	}
}

// TestCorruptDigestIsFailedOp pins the tiny zeus results, then damages
// one digest: the run must report that op as failed.
func TestCorruptDigestIsFailedOp(t *testing.T) {
	def, _ := findWorkload("zeus-pfcompr")
	w, err := def.setup(tinyEnv(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.reference()
	w.close()
	if err != nil {
		t.Fatal(err)
	}
	good := pin(ref)
	bad := []byte(good)
	if bad[0] == '0' {
		bad[0] = '1'
	} else {
		bad[0] = '0'
	}
	for _, c := range []struct {
		pins       string
		wantFailed bool
	}{{good, false}, {string(bad), true}} {
		pins := digestTable{def.name: {"1": c.pins}}
		rep, err := measure(def, tinyEnv(t, pins), 100*time.Millisecond, false, time.Now(), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.failed > 0; got != c.wantFailed {
			t.Errorf("pins %q...: failed=%d, want failures %v", c.pins[:8], rep.failed, c.wantFailed)
		}
	}
}

// TestReplayDetectsTamperedLog alters one recorded coherence call: the
// replay must notice it did not reproduce the record pass.
func TestReplayDetectsTamperedLog(t *testing.T) {
	def, _ := findWorkload("zeus-pfcompr")
	w, err := def.setup(tinyEnv(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	lg, err := record(w.samples()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replayAll(lg); err != nil {
		t.Fatalf("untouched log: %v", err)
	}
	// Send one demand Access to another block address.
	ch := lg.coh.chunks[0]
	i := len(ch) / 2
	for ch[i]>>addrBits&3 != cohAccess {
		i++
	}
	ch[i] ^= 1 << 20
	if _, err := replayAll(lg); err == nil {
		t.Fatal("replay of a tampered coherence log reported success")
	}
}

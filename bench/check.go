package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cmpsim/internal/sim"
)

// digestSeeds are the workload seeds whose results are pinned.
var digestSeeds = []int64{1, 2, 3}

// digestLen is the hex length of one pinned result digest (32 bits:
// ample to catch a changed result, and it keeps the table small).
const digestLen = 8

// pinnedJSON is bench/testdata/digests.json: workload -> seed -> the
// digests of every op's result, concatenated in sorted op-key order.
// Only -update rewrites it, and only a change that means to alter
// simulated results should.
//
//go:embed testdata/digests.json
var pinnedJSON []byte

type digestTable map[string]map[string]string

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(pinnedJSON, &t); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return t, nil
}

// forRun maps each op key to its pinned digest, or returns nil when the
// seed is not pinned. A pin made for a different set of ops maps no key,
// so every op fails its check until the table is re-pinned.
func (t digestTable) forRun(workload string, seed int64, keys []string) map[string]string {
	s, ok := t[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil
	}
	m := map[string]string{}
	if len(s) != digestLen*len(keys) {
		return m
	}
	keys = append([]string(nil), keys...)
	sort.Strings(keys)
	for i, k := range keys {
		m[k] = s[i*digestLen : (i+1)*digestLen]
	}
	return m
}

// pin concatenates the digests of results in sorted key order.
func pin(results map[string][]byte) string {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(digest(results[k]))
	}
	return b.String()
}

// digest is the first digestLen hex digits of a result's SHA-256.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:digestLen/2])
}

func jsonBytes(v any) ([]byte, error) { return json.Marshal(v) }

// checkMetrics applies the checks that hold for any seed: the window
// retired its instructions, no reported rate is NaN or infinite, and
// misses never exceed accesses.
func checkMetrics(m *sim.Metrics, cfg sim.Config) error {
	if want := uint64(cfg.Cores) * cfg.MeasureInstr; m.Instructions < want {
		return fmt.Errorf("retired %d instructions, want at least %d", m.Instructions, want)
	}
	for name, v := range map[string]float64{
		"Cycles": m.Cycles, "IPC": m.IPC, "L2MissRate": m.L2MissRate, "L2MissesPerKI": m.L2MissesPerKI,
		"MeanL2HitLatency": m.MeanL2HitLatency, "CompressionRatio": m.CompressionRatio,
		"BandwidthGBps": m.BandwidthGBps, "LinkUtilization": m.LinkUtilization,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", name, v)
		}
	}
	if m.L2Misses > m.L2Accesses {
		return fmt.Errorf("%d L2 misses exceed %d accesses", m.L2Misses, m.L2Accesses)
	}
	return nil
}

// updateDigests recomputes every pinned seed's results by each
// workload's plainest path (direct sim.Run or a local scheduler) and
// writes the digest table to path.
func updateDigests(path, tmp string, log io.Writer) error {
	t := digestTable{}
	for _, def := range workloads {
		t[def.name] = map[string]string{}
		for _, seed := range digestSeeds {
			w, err := def.setup(&env{seed: seed, size: fullSize, tmp: tmp, log: log})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", def.name, seed, err)
			}
			ref, err := w.reference()
			w.close()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", def.name, seed, err)
			}
			t[def.name][strconv.FormatInt(seed, 10)] = pin(ref)
			fmt.Fprintf(log, "cmpbench: pinned %d results of %s seed %d\n", len(ref), def.name, seed)
		}
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

package report

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"cmpsim/internal/core"
)

func TestTableAndFigureFormatting(t *testing.T) {
	var buf bytes.Buffer

	comprRows := []core.CompressionRow{{
		Benchmark: "zeus", Ratio: 1.45, BaseMissPerKI: 6.0, ComprMissPerKI: 5.0,
		MissReductionPct: 16.7, SpeedupCachePct: 8.1, SpeedupLinkPct: 1.2, SpeedupBothPct: 9.7,
	}}
	Table3(&buf, comprRows)
	Fig3(&buf, comprRows)
	Fig5(&buf, comprRows)

	Fig4(&buf, []core.BandwidthRow{{Benchmark: "fma3d", None: 27.7, CacheOnly: 26, LinkOnly: 21, Both: 21}})

	Table4(&buf, []core.PrefetchPropsRow{{
		Benchmark: "zeus",
		L1I:       core.PrefetcherProps{RatePer1000: 7.1, CoveragePct: 14.5, AccuracyPct: 38.9},
		L1D:       core.PrefetcherProps{RatePer1000: 5.5, CoveragePct: 17.7, AccuracyPct: 79.2},
		L2:        core.PrefetcherProps{RatePer1000: 8.2, CoveragePct: 44.4, AccuracyPct: 56.0},
	}})

	Fig6(&buf, []core.PrefetchSpeedupRow{{Benchmark: "zeus", SpeedupPct: 21.3, AdaptiveSpeedupPct: 42}})

	inter := []core.InteractionRow{{
		Benchmark: "zeus", PrefPct: 21.3, ComprPct: 9.7, BothPct: 50.7,
		AdaptiveBothPct: 50.8, InteractionPct: 13.2,
		BWBasePrefGrowthPct: 98, BWComprPrefGrowthPct: 14,
	}}
	Fig7(&buf, inter)
	Table5(&buf, inter)

	Fig8(&buf, []core.MissClassRow{{Benchmark: "apache", NotAvoidedPct: 60,
		OnlyComprPct: 15, OnlyPrefPct: 17, EitherPct: 8, PrefFetchPct: 30, PrefAvoidedPct: 10}})

	Fig10(&buf, []core.AdaptiveRow{{Benchmark: "jbb", PrefPct: -24.5,
		AdaptivePct: 0.8, PrefComprPct: -6.5, AdaptiveComprPct: 1.7}})

	Fig11(&buf, []core.BandwidthSweepRow{{Benchmark: "zeus",
		InteractionPct: map[int]float64{10: 29, 20: 17, 40: 2, 80: 0.5}}})

	CoreSweep(&buf, "Figure 1 (zeus)", []core.CoreSweepRow{{
		Benchmark: "zeus", Cores: 16, PrefPct: -8, AdaptivePct: 16,
		ComprPct: 12, BothPct: 28, AdBothPct: 28,
	}})

	out := buf.String()
	for _, want := range []string{
		"Table 3", "Figure 3", "Figure 4", "Figure 5", "Table 4",
		"Figure 6", "Figure 7", "Figure 8", "Table 5", "Figure 10",
		"Figure 11", "Figure 1 (zeus)",
		"zeus", "fma3d", "jbb", "apache",
		"+21.3%", "+13.2%", "27.70", "-24.5%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Fig11 bandwidth columns must be sorted ascending.
	i10 := strings.Index(out, "10GB")
	i80 := strings.Index(out, "80GB")
	if i10 == -1 || i80 == -1 || i10 > i80 {
		t.Error("Fig11 columns not in ascending bandwidth order")
	}
}

func TestFailedRowsRenderExplicitly(t *testing.T) {
	var buf bytes.Buffer
	reason := "panic: injected (seed 0)"

	comprRows := []core.CompressionRow{
		{Benchmark: "zeus", Failed: reason},
		{Benchmark: "mgrid", Ratio: 1.2},
	}
	Table3(&buf, comprRows)
	Fig3(&buf, comprRows)
	Fig5(&buf, comprRows)
	Fig4(&buf, []core.BandwidthRow{{Benchmark: "zeus", Failed: reason}})
	Table4(&buf, []core.PrefetchPropsRow{{Benchmark: "zeus", Failed: reason}})
	Fig6(&buf, []core.PrefetchSpeedupRow{{Benchmark: "zeus", Failed: reason}})
	inter := []core.InteractionRow{{Benchmark: "zeus", Failed: reason}}
	Fig7(&buf, inter)
	Table5(&buf, inter)
	Fig8(&buf, []core.MissClassRow{{Benchmark: "zeus", Failed: reason}})
	Fig10(&buf, []core.AdaptiveRow{{Benchmark: "zeus", Failed: reason}})
	// A failed first row must not hide the bandwidth header columns.
	Fig11(&buf, []core.BandwidthSweepRow{
		{Benchmark: "zeus", Failed: reason},
		{Benchmark: "mgrid", InteractionPct: map[int]float64{10: 2, 20: 1}},
	})
	CoreSweep(&buf, "Figure 1 (zeus)", []core.CoreSweepRow{{Benchmark: "zeus", Cores: 8, Failed: reason}})
	Ablations(&buf, []core.AblationRow{{Ablation: "l2-tags", Benchmark: "jbb", Variant: "16", Failed: reason}})

	out := buf.String()
	if got := strings.Count(out, "FAILED("+reason+")"); got != 13 {
		t.Errorf("FAILED cell count = %d, want 13\n%s", got, out)
	}
	if !strings.Contains(out, "10GB") || !strings.Contains(out, "20GB") {
		t.Error("Fig11 header not derived from first non-failed row")
	}
	if !strings.Contains(out, "1.20") {
		t.Error("healthy row missing alongside failed row")
	}
}

func TestFailedRowsInCSV(t *testing.T) {
	var buf bytes.Buffer
	err := CompressionCSV(&buf, []core.CompressionRow{{Benchmark: "zeus", Failed: "timeout (seed 1)"}})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if h := recs[0][len(recs[0])-1]; h != "failed" {
		t.Fatalf("last header column = %q, want failed", h)
	}
	if c := recs[1][len(recs[1])-1]; c != "timeout (seed 1)" {
		t.Fatalf("failed cell = %q", c)
	}

	buf.Reset()
	if err := BandwidthSweepCSV(&buf, []core.BandwidthSweepRow{{Benchmark: "zeus", Failed: "x"}}); err != nil {
		t.Fatal(err)
	}
	recs, err = csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1][3] != "x" {
		t.Fatalf("bandwidth sweep failed row: %v", recs)
	}
}

func TestFig11EmptyRows(t *testing.T) {
	var buf bytes.Buffer
	Fig11(&buf, nil) // must not panic
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Error("header missing")
	}
}

package workload

import (
	"reflect"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
)

func TestSourceRegistry(t *testing.T) {
	want := []string{"strided", "ptrchase", "hashprobe", "btree", "srvmix"}
	if got := SourceNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SourceNames() = %v, want %v", got, want)
	}
	if _, err := SourceByName(""); err != nil {
		t.Fatalf("empty name must resolve to the default: %v", err)
	}
	if !SourceRegistered(DefaultSource) || SourceRegistered("nosuch") {
		t.Error("SourceRegistered misclassifies")
	}
	_, err := SourceByName("nosuch")
	wantErr := `workload: unknown reference source "nosuch" (have [strided ptrchase hashprobe btree srvmix])`
	if err == nil || err.Error() != wantErr {
		t.Errorf("unknown-source error %v, want %q", err, wantErr)
	}
}

func TestSourceResolution(t *testing.T) {
	// "" resolves to the profile's own Kind; an explicit kind overrides
	// it in both directions.
	strided := MustNewSource("", MustByName("zeus"), 0, 1)
	if _, ok := strided.(*Generator); !ok {
		t.Errorf("zeus default source = %T, want *Generator", strided)
	}
	for _, name := range IrregularOrder() {
		p := MustByName(name)
		if p.Kind != name {
			t.Errorf("%s profile Kind = %q, want %q", name, p.Kind, name)
		}
		if _, ok := MustNewSource("", p, 0, 1).(*Generator); ok {
			t.Errorf("%s default source must not be the strided Generator", name)
		}
		if _, ok := MustNewSource("strided", p, 0, 1).(*Generator); !ok {
			t.Errorf("%s with forced strided kind must build a *Generator", name)
		}
	}
	if _, ok := MustNewSource("ptrchase", MustByName("zeus"), 0, 1).(*irrGen); !ok {
		t.Error("forcing ptrchase onto zeus must build an irregular source")
	}
}

func TestIrregularSourceDeterminism(t *testing.T) {
	for _, name := range IrregularOrder() {
		p := MustByName(name)
		a := MustNewSource("", p, 1, 42)
		b := MustNewSource("", p, 1, 42)
		c := MustNewSource("", p, 1, 43)
		ra, rb, rc := make([]Ref, 4096), make([]Ref, 4096), make([]Ref, 4096)
		differ := false
		for i := 0; i < 4; i++ {
			a.NextN(ra)
			b.NextN(rb)
			c.NextN(rc)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("%s: same (core, seed) diverged in batch %d", name, i)
			}
			if !reflect.DeepEqual(ra, rc) {
				differ = true
			}
		}
		if !differ {
			t.Errorf("%s: different seeds produced identical streams", name)
		}
		ia, da, fa := a.Counts()
		ib, db, fb := b.Counts()
		if ia != ib || da != db || fa != fb {
			t.Errorf("%s: counters diverged: (%d,%d,%d) vs (%d,%d,%d)",
				name, ia, da, fa, ib, db, fb)
		}
		if ia == 0 || da == 0 || fa == 0 {
			t.Errorf("%s: degenerate counters (%d,%d,%d)", name, ia, da, fa)
		}
	}
}

func TestIrregularMemRateMatchesProfile(t *testing.T) {
	// The shared gap-sampling front half must keep the profile's data
	// reference rate. srvmix modulates the rate per phase by design, so
	// it only gets a loose band.
	for _, name := range IrregularOrder() {
		p := MustByName(name)
		src := MustNewSource("", p, 0, 7)
		refs := make([]Ref, 4096)
		for i := 0; i < 64; i++ {
			src.NextN(refs)
		}
		instrs, data, _ := src.Counts()
		rate := float64(data) / float64(instrs) * 1000
		tol := 0.15
		if name == "srvmix" {
			tol = 0.45
		}
		if rate < p.MemPer1000*(1-tol) || rate > p.MemPer1000*(1+tol) {
			t.Errorf("%s: %.1f data refs per 1000 instrs, profile says %.1f",
				name, rate, p.MemPer1000)
		}
	}
}

func TestChaseStreamIsStrideFree(t *testing.T) {
	// The pointer chase must defeat stride detection: unit-stride
	// deltas between successive data references stay rare, yet the
	// walk revisits chains (addresses recur) so a correlation
	// prefetcher has something to learn.
	src := MustNewSource("", MustByName("ptrchase"), 0, 11)
	refs := make([]Ref, 65536)
	src.NextN(refs)
	var last cache.BlockAddr
	unit, data := 0, 0
	seen := map[cache.BlockAddr]int{}
	for i := range refs {
		if refs[i].Kind == coherence.IFetch {
			continue
		}
		data++
		if last != 0 && int64(refs[i].Addr)-int64(last) == 1 {
			unit++
		}
		last = refs[i].Addr
		seen[refs[i].Addr]++
	}
	if frac := float64(unit) / float64(data); frac > 0.05 {
		t.Errorf("unit-stride fraction %.3f; chase is stride-trainable", frac)
	}
	revisited := 0
	for _, n := range seen {
		if n > 1 {
			revisited++
		}
	}
	if frac := float64(revisited) / float64(len(seen)); frac < 0.10 {
		t.Errorf("only %.3f of touched blocks revisited; chains do not recur", frac)
	}
}

func TestServiceMixScanPhaseIsTrainable(t *testing.T) {
	// The heavy-load scan phase must emit long unit-stride runs — the
	// phased mix is what makes adaptive prefetching interesting here.
	src := MustNewSource("", MustByName("srvmix"), 0, 3)
	refs := make([]Ref, 4096)
	var last cache.BlockAddr
	maxRun, run := 0, 0
	for i := 0; i < 64; i++ {
		src.NextN(refs)
		for j := range refs {
			if refs[j].Kind == coherence.IFetch {
				continue
			}
			if last != 0 && int64(refs[j].Addr)-int64(last) == 1 {
				run++
				if run > maxRun {
					maxRun = run
				}
			} else {
				run = 0
			}
			last = refs[j].Addr
		}
	}
	if maxRun < 8 {
		t.Fatalf("longest unit-stride run %d; scan phase not trainable", maxRun)
	}
}

// checkRegions verifies every ref lies in a region the profile
// declares; it is shared with the fuzz targets.
func checkRegions(t *testing.T, p Profile, core int, refs []Ref) {
	t.Helper()
	priv := privateBase + cache.BlockAddr(core)*(privateSize+coreSkew)
	strm := streamBase + cache.BlockAddr(core)*(privateSize+coreSkew)
	if p.DataShared {
		priv, strm = privateBase, streamBase
	}
	for i := range refs {
		r := &refs[i]
		if r.Kind == coherence.IFetch {
			if r.Addr < codeBase || r.Addr >= codeBase+cache.BlockAddr(p.IFootprint) {
				t.Fatalf("ifetch addr %#x outside code region", uint64(r.Addr))
			}
			continue
		}
		inPriv := r.Addr >= priv && r.Addr < priv+cache.BlockAddr(p.PrivateWS)
		inShared := r.Addr >= sharedBase && r.Addr < sharedBase+cache.BlockAddr(p.SharedWS)
		inStream := p.StreamWS > 0 && r.Addr >= strm && r.Addr < strm+cache.BlockAddr(p.StreamWS)
		if !inPriv && !inShared && !inStream {
			t.Fatalf("data addr %#x outside declared regions (core %d)", uint64(r.Addr), core)
		}
	}
}

func TestSourceAddressRegions(t *testing.T) {
	// Every (benchmark, kind) pairing stays inside its declared address
	// regions — the deterministic companion of FuzzSourceRegions.
	refs := make([]Ref, 16384)
	for _, bench := range Names() {
		p := MustByName(bench)
		for _, kind := range SourceNames() {
			src := MustNewSource(kind, p, 2, 9)
			src.NextN(refs)
			checkRegions(t, p, 2, refs)
		}
	}
}

// BenchmarkSourceNextN times every registered reference source on its
// own profile (the strided Generator on apache, the first of the
// paper's benchmarks) in batches of refBatch's 256 references, as the
// simulator draws them, and reports ns/ref.
func BenchmarkSourceNextN(b *testing.B) {
	for _, kind := range SourceNames() {
		var p Profile
		for _, name := range Names() {
			if p = MustByName(name); p.Kind == kind || p.Kind == "" && kind == DefaultSource {
				break
			}
		}
		b.Run(kind, func(b *testing.B) {
			src := MustNewSource(kind, p, 0, 1)
			refs := make([]Ref, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.NextN(refs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(refs)), "ns/ref")
		})
	}
}

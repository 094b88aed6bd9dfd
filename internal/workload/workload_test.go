package workload

import (
	"math"
	"testing"
	"testing/quick"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/coherence"
)

// Line returns a copy of the block's current 64-byte contents.
func (d *DataModel) Line(a cache.BlockAddr) []byte {
	out := make([]byte, cache.LineBytes)
	d.FillLine(a, out)
	return out
}

// PackedRatio is the effective-size ratio calibration's packing
// estimator reports for n sample lines at the model's thresholds.
func (d *DataModel) PackedRatio(n int) float64 {
	return newPackSample(d.seed, n, d.codec).ratio(&d.th)
}

// MeanSegs estimates the expected compressed size over n sample blocks.
func (d *DataModel) MeanSegs(n int) float64 {
	var buf [cache.LineBytes]byte
	total := 0
	for i := 0; i < n; i++ {
		d.FillLine(cache.BlockAddr(0x40000000+i), buf[:])
		total += d.codec.CompressedSizeSegments(buf[:])
	}
	return float64(total) / float64(n)
}

func TestAllProfilesValidate(t *testing.T) {
	for _, name := range Names() {
		p := MustByName(name)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPaperOrderCoversAll(t *testing.T) {
	order := PaperOrder()
	irr := IrregularOrder()
	if len(order) != 8 || len(irr) != 4 || len(Names()) != len(order)+len(irr) {
		t.Fatalf("benchmark count: paper=%d irregular=%d names=%d",
			len(order), len(irr), len(Names()))
	}
	for _, n := range append(append([]string(nil), order...), irr...) {
		if _, err := ByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestClassSplit(t *testing.T) {
	want := map[string]Class{
		"apache": Commercial, "zeus": Commercial, "oltp": Commercial, "jbb": Commercial,
		"art": SPEComp, "apsi": SPEComp, "fma3d": SPEComp, "mgrid": SPEComp,
		"ptrchase": Irregular, "hashprobe": Irregular, "btree": Irregular, "srvmix": Irregular,
	}
	for n, c := range want {
		if got := MustByName(n).Class; got != c {
			t.Errorf("%s class = %v, want %v", n, got, c)
		}
	}
	if Commercial.String() != "commercial" || SPEComp.String() != "SPEComp" ||
		Irregular.String() != "irregular" {
		t.Error("class strings")
	}
}

func TestCalibrationHitsTargetRatios(t *testing.T) {
	// The calibrated data model must reproduce each benchmark's Table 3
	// compression ratio within tolerance.
	for _, name := range PaperOrder() {
		p := MustByName(name)
		d := NewDataModelCodec(p, 42, codec.Default())
		got := d.PackedRatio(2048)
		if math.Abs(got-p.TargetRatio) > 0.06 {
			t.Errorf("%s: calibrated packed ratio %.3f, target %.3f (mean segs %.2f)",
				name, got, p.TargetRatio, d.MeanSegs(512))
		}
	}
}

// TestCodecRatioOrdering checks the codec choice actually reaches the
// sizing path: on a compressible commercial profile, the single-pattern
// zca codec must achieve no more packed effective size than FPC, which
// the data model's value mixture is built around; fpc calibrated at the
// profile's target must land near it.
func TestCodecRatioOrdering(t *testing.T) {
	prof := MustByName("zeus")
	fpcR := NewDataModelCodec(prof, 1, codec.MustByName("fpc")).PackedRatio(2048)
	zcaR := NewDataModelCodec(prof, 1, codec.MustByName("zca")).PackedRatio(2048)
	if zcaR > fpcR {
		t.Errorf("zca packed ratio %g exceeds fpc %g on an FPC-patterned value stream", zcaR, fpcR)
	}
	if fpcR < prof.TargetRatio-0.1 {
		t.Errorf("fpc packed ratio %g misses the calibration target %g", fpcR, prof.TargetRatio)
	}
}

func TestDataModelDeterminism(t *testing.T) {
	p := MustByName("apache")
	d1 := NewDataModelCodec(p, 7, codec.Default())
	d2 := NewDataModelCodec(p, 7, codec.Default())
	for a := cache.BlockAddr(0); a < 64; a++ {
		if d1.SizeOf(a) != d2.SizeOf(a) {
			t.Fatalf("block %d sizes differ", a)
		}
	}
	l1, l2 := d1.Line(5), d2.Line(5)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("line contents differ across identical models")
		}
	}
}

func TestDataModelSeedsDiffer(t *testing.T) {
	p := MustByName("apache")
	d1 := NewDataModelCodec(p, 1, codec.Default())
	d2 := NewDataModelCodec(p, 2, codec.Default())
	same := 0
	for a := cache.BlockAddr(0); a < 128; a++ {
		if d1.SizeOf(a) == d2.SizeOf(a) {
			same++
		}
	}
	if same == 128 {
		t.Fatal("different seeds produced identical size fields")
	}
}

func TestSizeOfMatchesFPCOnLine(t *testing.T) {
	p := MustByName("oltp")
	d := NewDataModelCodec(p, 3, codec.Default())
	for a := cache.BlockAddr(0); a < 32; a++ {
		line := d.Line(a)
		if got, want := d.SizeOf(a), uint8(codec.FPC{}.CompressedSizeSegments(line)); got != want {
			t.Fatalf("block %d: SizeOf=%d, fpc=%d", a, got, want)
		}
	}
}

func TestDirtyBumpsVersion(t *testing.T) {
	p := MustByName("jbb")
	d := NewDataModelCodec(p, 9, codec.Default())
	a := cache.BlockAddr(123)
	before := d.Line(a)
	d.Dirty(a)
	after := d.Line(a)
	differ := false
	for i := range before {
		if before[i] != after[i] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("Dirty must change block contents")
	}
	// SizeOf must reflect the new version.
	if got, want := d.SizeOf(a), uint8(codec.FPC{}.CompressedSizeSegments(after)); got != want {
		t.Fatalf("post-dirty SizeOf=%d, want %d", got, want)
	}
}

func TestSPECompLessCompressibleThanCommercial(t *testing.T) {
	comm := NewDataModelCodec(MustByName("jbb"), 5, codec.Default()).MeanSegs(256)
	sci := NewDataModelCodec(MustByName("apsi"), 5, codec.Default()).MeanSegs(256)
	if comm >= sci {
		t.Fatalf("jbb mean segs %.2f should be below apsi %.2f", comm, sci)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := MustByName("zeus")
	g1 := NewGenerator(p, 2, 11)
	g2 := NewGenerator(p, 2, 11)
	var r1, r2 Ref
	for i := 0; i < 2000; i++ {
		g1.Next(&r1)
		g2.Next(&r2)
		if r1 != r2 {
			t.Fatalf("ref %d differs: %+v vs %+v", i, r1, r2)
		}
	}
}

func TestGeneratorCoresDiffer(t *testing.T) {
	p := MustByName("zeus")
	g1 := NewGenerator(p, 0, 11)
	g2 := NewGenerator(p, 1, 11)
	var r1, r2 Ref
	diff := false
	for i := 0; i < 100; i++ {
		g1.Next(&r1)
		g2.Next(&r2)
		if r1 != r2 {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different cores produced identical streams")
	}
}

func TestGeneratorMixMatchesProfile(t *testing.T) {
	p := MustByName("apache")
	g := NewGenerator(p, 0, 42)
	var r Ref
	var data, ifetch, stores, loads, blocking uint64
	for g.instructions < 2_000_000 {
		g.Next(&r)
		switch r.Kind {
		case coherence.IFetch:
			ifetch++
		case coherence.Store:
			data++
			stores++
		case coherence.Load:
			data++
			loads++
			if r.Blocking {
				blocking++
			}
		}
	}
	per1000 := float64(data) / float64(g.instructions) * 1000
	if math.Abs(per1000-p.MemPer1000) > p.MemPer1000*0.1 {
		t.Errorf("data refs per 1000 = %.1f, want ≈%.1f", per1000, p.MemPer1000)
	}
	storeFrac := float64(stores) / float64(data)
	if math.Abs(storeFrac-p.StoreFrac) > 0.05 {
		t.Errorf("store frac = %.3f, want ≈%.2f", storeFrac, p.StoreFrac)
	}
	blockFrac := float64(blocking) / float64(loads)
	if math.Abs(blockFrac-p.BlockingFrac) > 0.05 {
		t.Errorf("blocking frac = %.3f, want ≈%.2f", blockFrac, p.BlockingFrac)
	}
	// One I-block fetch per InstrPerIBlock instructions.
	wantIF := float64(g.instructions) / float64(p.InstrPerIBlock)
	if math.Abs(float64(ifetch)-wantIF) > wantIF*0.05 {
		t.Errorf("ifetches = %d, want ≈%.0f", ifetch, wantIF)
	}
}

func TestGeneratorAddressRegions(t *testing.T) {
	p := MustByName("oltp")
	g := NewGenerator(p, 3, 1)
	var r Ref
	priv := privateBase + 3*(privateSize+coreSkew)
	if p.DataShared {
		priv = privateBase
	}
	for i := 0; i < 50_000; i++ {
		g.Next(&r)
		switch r.Kind {
		case coherence.IFetch:
			if r.Addr < codeBase || r.Addr >= codeBase+cache.BlockAddr(p.IFootprint) {
				t.Fatalf("ifetch addr %#x outside code region", uint64(r.Addr))
			}
		default:
			inPriv := r.Addr >= priv && r.Addr < priv+cache.BlockAddr(p.PrivateWS)
			inShared := r.Addr >= sharedBase && r.Addr < sharedBase+cache.BlockAddr(p.SharedWS)
			inStream := p.StreamWS > 0 && r.Addr >= streamBase &&
				r.Addr < streamBase+cache.BlockAddr(p.StreamWS)
			if !inPriv && !inShared && !inStream {
				t.Fatalf("data addr %#x outside regions", uint64(r.Addr))
			}
		}
	}
}

func TestStridedRunsAreTrainable(t *testing.T) {
	// With StridedFrac 1.0 the generated misses must contain runs of at
	// least 4 consecutive same-stride addresses per stream.
	p := MustByName("apsi")
	p.StridedFrac = 1.0
	p.SharedFrac = 0
	p.Streams = 1
	g := NewGenerator(p, 0, 5)
	var r Ref
	var last cache.BlockAddr
	runLen := 0
	maxRun := 0
	for i := 0; i < 20_000; i++ {
		g.Next(&r)
		if r.Kind == coherence.IFetch {
			continue
		}
		if last != 0 && int64(r.Addr)-int64(last) == 1 {
			runLen++
			if runLen > maxRun {
				maxRun = runLen
			}
		} else {
			runLen = 0
		}
		last = r.Addr
	}
	if maxRun < 8 {
		t.Fatalf("longest unit-stride run %d; streams are not trainable", maxRun)
	}
}

// Property: CalibrateKnobCodec is monotone — higher targets need higher knobs.
func TestCalibrationMonotoneProperty(t *testing.T) {
	f := func(seed uint32) bool {
		k1 := CalibrateKnobCodec(1.1, uint64(seed), codec.Default())
		k2 := CalibrateKnobCodec(1.5, uint64(seed), codec.Default())
		k3 := CalibrateKnobCodec(1.9, uint64(seed), codec.Default())
		return k1 <= k2 && k2 <= k3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPackSampleSizesStayExact walks a pack sample through a knob
// search's sequence of knobs (halving steps, both directions) and then
// a few jumps, and checks after every knob that each line's kept size
// is its codec size recomputed from freshly synthesized contents: the
// sizes reused for lines whose classes did not move must still be
// right.
func TestPackSampleSizesStayExact(t *testing.T) {
	knobs := []float64{0.5, 0.25, 0.375, 0.4375, 0.40625, 0.421875, 0.4140625, 0.41796875, 1, 0, 0.7}
	for _, c := range []codec.Codec{codec.MustByName("fpc"), codec.MustByName("bdi")} {
		s := newPackSample(7, 512, c)
		var line [cache.LineBytes]byte
		for _, k := range knobs {
			th := knobThresholds(k)
			s.ratio(&th)
			for i := range s.hashes {
				synthLine(&th, &s.hashes[i], line[:])
				if want := c.CompressedSizeSegments(line[:]); int(s.segs[i]) != want {
					t.Fatalf("%s knob %g line %d: kept size %d, contents size %d", c.Name(), k, i, s.segs[i], want)
				}
			}
		}
	}
}

func TestGapSamplingNonNegative(t *testing.T) {
	p := MustByName("fma3d")
	g := NewGenerator(p, 0, 2)
	var r Ref
	for i := 0; i < 10_000; i++ {
		g.Next(&r)
		if int32(r.Gap) < 0 {
			t.Fatal("negative gap")
		}
	}
}

func BenchmarkSizeOfCold(b *testing.B) {
	d := NewDataModelCodec(MustByName("jbb"), 1, codec.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SizeOf(cache.BlockAddr(i))
	}
}

func BenchmarkFillLine(b *testing.B) {
	d := NewDataModelCodec(MustByName("jbb"), 1, codec.Default())
	var line [cache.LineBytes]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.FillLine(cache.BlockAddr(i), line[:])
	}
}

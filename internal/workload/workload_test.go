package workload

import (
	"math"
	"testing"
	"testing/quick"

	"mzqos/internal/dist"
)

func TestPaperSizes(t *testing.T) {
	m := PaperSizes()
	if math.Abs(m.Mean()-200*KB) > 1e-6 {
		t.Errorf("Mean = %v, want %v", m.Mean(), 200*KB)
	}
	if math.Abs(math.Sqrt(m.Var())-100*KB) > 1e-6 {
		t.Errorf("Std = %v, want %v", math.Sqrt(m.Var()), 100*KB)
	}
}

func TestSizeModelConstructors(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(mean, sd float64) (SizeModel, error)
	}{
		{"gamma", GammaSizes},
		{"lognormal", LognormalSizes},
		{"pareto", ParetoSizes},
	} {
		m, err := tc.make(200*KB, 100*KB)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if math.Abs(m.Mean()-200*KB) > 1e-4*200*KB {
			t.Errorf("%s mean = %v", tc.name, m.Mean())
		}
		if math.Abs(m.Var()-100*KB*100*KB) > 1e-3*100*KB*100*KB {
			t.Errorf("%s var = %v", tc.name, m.Var())
		}
		if _, err := tc.make(-1, 1); err == nil {
			t.Errorf("%s: negative mean should error", tc.name)
		}
	}
}

func TestFixedSizes(t *testing.T) {
	m, err := FixedSizes(100 * KB)
	if err != nil {
		t.Fatal(err)
	}
	if m.Var() != 0 || m.Mean() != 100*KB {
		t.Error("fixed size moments wrong")
	}
	rng := dist.NewRand(1, 1)
	if m.Sample(rng) != 100*KB {
		t.Error("fixed size sample wrong")
	}
	if _, err := FixedSizes(0); err == nil {
		t.Error("zero size should error")
	}
}

func TestSizeQuantilePaperPercentiles(t *testing.T) {
	// eq. 4.1 uses the 99- and 95-percentile of the Gamma size law.
	m := PaperSizes()
	q99, err := m.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Gamma shape 4: 99-pct ≈ 10.045·scale with scale = 50 KB.
	if math.Abs(q99-10.045*50*KB) > 0.01*q99 {
		t.Errorf("99-pct = %v KB, want ≈%v KB", q99/KB, 10.045*50)
	}
	q95, err := m.Quantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !(q95 < q99) {
		t.Errorf("95-pct %v not below 99-pct %v", q95, q99)
	}
}

func TestFromSample(t *testing.T) {
	rng := dist.NewRand(5, 7)
	src := PaperSizes()
	sizes := make([]float64, 20000)
	for i := range sizes {
		sizes[i] = src.Sample(rng)
	}
	m, err := FromSample("fitted", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean()-200*KB) > 0.03*200*KB {
		t.Errorf("fitted mean = %v", m.Mean()/KB)
	}
	if _, err := FromSample("empty", nil); err == nil {
		t.Error("empty sample should error")
	}
	// Constant sample degrades to a CBR model.
	cm, err := FromSample("const", []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Var() != 0 {
		t.Error("constant sample should give CBR model")
	}
}

func TestSampleAlwaysPositive(t *testing.T) {
	m := PaperSizes()
	rng := dist.NewRand(9, 9)
	for i := 0; i < 10000; i++ {
		if s := m.Sample(rng); !(s > 0) {
			t.Fatalf("non-positive sample %v", s)
		}
	}
}

func TestGenerateTraceMeanRate(t *testing.T) {
	cfg := DefaultTraceConfig()
	rng := dist.NewRand(17, 23)
	frames, err := GenerateTrace(cfg, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 600*25 {
		t.Fatalf("frame count = %d, want %d", len(frames), 600*25)
	}
	var total float64
	for _, f := range frames {
		if !(f > 0) {
			t.Fatalf("non-positive frame size %v", f)
		}
		total += f
	}
	rate := total / 600
	if math.Abs(rate-cfg.MeanRate) > 0.10*cfg.MeanRate {
		t.Errorf("trace rate = %v KB/s, want ≈%v KB/s", rate/KB, cfg.MeanRate/KB)
	}
}

func TestGenerateTraceGOPPeriodicity(t *testing.T) {
	// With noise disabled, I frames must be exactly ratio-times B frames.
	cfg := DefaultTraceConfig()
	cfg.FrameCV = 0
	cfg.SceneCV = 0
	rng := dist.NewRand(3, 4)
	frames, err := GenerateTrace(cfg, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	gop := cfg.GOP
	iSize := frames[0] // first frame is I
	for k, ch := range gop {
		want := iSize
		switch FrameType(ch) {
		case FrameP:
			want = iSize * cfg.SizeRatio[1] / cfg.SizeRatio[0]
		case FrameB:
			want = iSize * cfg.SizeRatio[2] / cfg.SizeRatio[0]
		}
		if math.Abs(frames[k]-want) > 1e-9*want {
			t.Errorf("frame %d (%c) = %v, want %v", k, ch, frames[k], want)
		}
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	cfg := DefaultTraceConfig()
	rng := dist.NewRand(1, 2)
	if _, err := GenerateTrace(cfg, 0, rng); err == nil {
		t.Error("zero duration should error")
	}
	bad := cfg
	bad.GOP = "IXB"
	if _, err := GenerateTrace(bad, 10, rng); err == nil {
		t.Error("bad GOP should error")
	}
	bad = cfg
	bad.SizeRatio = [3]float64{1, 0, 1}
	if _, err := GenerateTrace(bad, 10, rng); err == nil {
		t.Error("zero ratio should error")
	}
	bad = cfg
	bad.FrameCV = -1
	if _, err := GenerateTrace(bad, 10, rng); err == nil {
		t.Error("negative CV should error")
	}
	bad = cfg
	bad.MeanRate = 0
	if _, err := GenerateTrace(bad, 10, rng); err == nil {
		t.Error("zero rate should error")
	}
}

func TestFragment(t *testing.T) {
	frames := []float64{1, 2, 3, 4, 5, 6, 7}
	frags, err := Fragment(frames, 2, 1) // 2 frames per fragment
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 7, 11, 7}
	if len(frags) != len(want) {
		t.Fatalf("fragment count = %d, want %d", len(frags), len(want))
	}
	for i := range want {
		if frags[i] != want[i] {
			t.Errorf("fragment %d = %v, want %v", i, frags[i], want[i])
		}
	}
}

func TestFragmentConservation(t *testing.T) {
	// Property: fragmentation conserves total bytes.
	prop := func(seed uint64, nRaw int, dtRaw float64) bool {
		rng := dist.NewRand(seed, seed+1)
		n := 1 + abs(nRaw)%500
		frames := make([]float64, n)
		var total float64
		for i := range frames {
			frames[i] = rng.Float64() * 1e5
			total += frames[i]
		}
		dt := 0.04 + math.Abs(math.Mod(dtRaw, 3))
		frags, err := Fragment(frames, 25, dt)
		if err != nil {
			return false
		}
		var sum float64
		for _, f := range frags {
			sum += f
		}
		return math.Abs(sum-total) < 1e-6*math.Max(total, 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFragmentValidation(t *testing.T) {
	if _, err := Fragment(nil, 25, 1); err == nil {
		t.Error("empty frames should error")
	}
	if _, err := Fragment([]float64{1}, 0, 1); err == nil {
		t.Error("zero frame rate should error")
	}
	if _, err := Fragment([]float64{1}, 25, 0); err == nil {
		t.Error("zero display time should error")
	}
}

func TestTraceFragmentsMatchPaperScale(t *testing.T) {
	// End-to-end: a 200 KB/s trace fragmented at 1 s display time should
	// have ~200 KB mean fragments with substantial variability.
	cfg := DefaultTraceConfig()
	rng := dist.NewRand(99, 100)
	frames, err := GenerateTrace(cfg, 1200, rng)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := Fragment(frames, cfg.FrameRate, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromSample("trace", frags)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean()-200*KB) > 0.15*200*KB {
		t.Errorf("trace fragment mean = %v KB", m.Mean()/KB)
	}
	cv := math.Sqrt(m.Var()) / m.Mean()
	if cv < 0.1 {
		t.Errorf("trace fragments suspiciously uniform: cv = %v", cv)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

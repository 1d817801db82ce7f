package fit

import (
	"math"
	"testing"
	"testing/quick"

	"ctsan/internal/dist"
	"ctsan/internal/rng"
)

func TestFitRecoversPaperBimodal(t *testing.T) {
	// Sample the paper's §5.1 fit and check the estimator recovers it.
	truth := dist.Bimodal(0.8, 0.1, 0.13, 0.145, 0.35)
	r := rng.New(7)
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = truth.Sample(r)
	}
	f, err := FitBimodal(samples)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name, got string
		v, want   float64
		tol       float64
	}{
		{"P1", "", f.P1, 0.8, 0.02},
		{"Lo1", "", f.Lo1, 0.1, 0.01},
		{"Hi1", "", f.Hi1, 0.13, 0.01},
		{"Lo2", "", f.Lo2, 0.145, 0.01},
		{"Hi2", "", f.Hi2, 0.35, 0.01},
	}
	for _, c := range checks {
		if math.Abs(c.v-c.want) > c.tol {
			t.Errorf("%s = %v, want %v ± %v", c.name, c.v, c.want, c.tol)
		}
	}
	if math.Abs(f.Dist().Mean()-truth.Mean()) > 0.01 {
		t.Errorf("fit mean %v vs truth %v", f.Dist().Mean(), truth.Mean())
	}
}

func TestFitNeedsSamples(t *testing.T) {
	if _, err := FitBimodal([]float64{1, 2, 3}); err == nil {
		t.Fatal("tiny sample accepted")
	}
}

func TestFitDoesNotMutateInput(t *testing.T) {
	in := []float64{5, 1, 4, 2, 9, 3, 8, 7, 6, 0}
	want := make([]float64, len(in))
	copy(want, in)
	if _, err := FitBimodal(in); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != want[i] {
			t.Fatal("FitBimodal sorted the caller's slice")
		}
	}
}

func TestShift(t *testing.T) {
	b := Bimodal{P1: 0.8, Lo1: 0.1, Hi1: 0.13, Lo2: 0.145, Hi2: 0.35}
	s := b.Shift(0.05, 0.001)
	if math.Abs(s.Lo1-0.05) > 1e-12 || math.Abs(s.Hi2-0.3) > 1e-12 {
		t.Fatalf("shift wrong: %+v", s)
	}
	// Shifting below the floor clamps and keeps supports non-degenerate.
	s2 := b.Shift(10, 0.001)
	if s2.Lo1 != 0.001 || s2.Hi1 <= s2.Lo1 || s2.Hi2 <= s2.Lo2 {
		t.Fatalf("clamped shift degenerate: %+v", s2)
	}
}

func TestShiftedDistSamples(t *testing.T) {
	b := Bimodal{P1: 0.5, Lo1: 1, Hi1: 2, Lo2: 5, Hi2: 6}
	d := b.Dist()
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if !(v >= 1 && v <= 2) && !(v >= 5 && v <= 6) {
			t.Fatalf("sample %v outside supports", v)
		}
	}
}

// TestFitSplitsWellSeparatedClusters: property test — for any two
// well-separated uniform clusters, the estimated split probability is
// close to the generating one.
func TestFitSplitsWellSeparatedClusters(t *testing.T) {
	if err := quick.Check(func(seed uint64, pRaw uint8) bool {
		p1 := 0.2 + 0.6*float64(pRaw)/255 // within [0.2, 0.8]
		truth := dist.Bimodal(p1, 0, 1, 10, 11)
		r := rng.New(seed)
		samples := make([]float64, 2000)
		for i := range samples {
			samples[i] = truth.Sample(r)
		}
		f, err := FitBimodal(samples)
		if err != nil {
			return false
		}
		return math.Abs(f.P1-p1) < 0.05 && f.Hi1 <= 1.01 && f.Lo2 >= 9.99
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	b := Bimodal{P1: 0.8, Lo1: 0.1, Hi1: 0.13, Lo2: 0.145, Hi2: 0.35}
	if s := b.String(); s == "" {
		t.Fatal("empty String")
	}
}

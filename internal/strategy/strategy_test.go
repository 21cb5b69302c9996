package strategy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

func TestRandSamplerInBounds(t *testing.T) {
	s := Rand()
	if s.Name() != "RAND" {
		t.Fatalf("Name = %q", s.Name())
	}
	d := dist.Uniform(2, 3)
	for idx := 0; idx < 10; idx++ {
		sm := s.Sampler(1, idx, 10, nil)
		v := sm.Draw("x", d)
		if v < 2 || v > 3 {
			t.Fatalf("draw %g out of bounds", v)
		}
	}
}

func TestRandSamplerDeterministicPerIndex(t *testing.T) {
	s := Rand()
	d := dist.Uniform(0, 1)
	a := s.Sampler(7, 3, 10, nil).Draw("x", d)
	b := s.Sampler(7, 3, 10, nil).Draw("x", d)
	if a != b {
		t.Fatal("same (seed, idx) must draw identically")
	}
	c := s.Sampler(7, 4, 10, nil).Draw("x", d)
	if a == c {
		t.Fatal("different indices should draw differently (w.h.p.)")
	}
}

func TestMCMCFirstRoundIsRandom(t *testing.T) {
	s := MCMC(MCMCOptions{})
	if s.Name() != "MCMC" {
		t.Fatalf("Name = %q", s.Name())
	}
	d := dist.Uniform(0, 1)
	// With no feedback everything explores; draws must cover the space.
	lo, hi := 1.0, 0.0
	for idx := 0; idx < 100; idx++ {
		v := s.Sampler(5, idx, 100, nil).Draw("x", d)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > 0.2 || hi < 0.8 {
		t.Fatalf("exploration draws too narrow: [%g, %g]", lo, hi)
	}
}

func TestMCMCExploitsFeedback(t *testing.T) {
	s := MCMC(MCMCOptions{Scale: 0.05})
	d := dist.Uniform(0, 100)
	fb := []Feedback{{Params: map[string]float64{"x": 42}, Score: 0.1}}
	near := 0
	const n = 100
	for idx := 0; idx < n; idx++ {
		v := s.Sampler(9, idx, n, fb).Draw("x", d)
		if math.Abs(v-42) <= 5.1 { // within the 5% proposal window
			near++
		}
	}
	// 75% of samplers exploit (ExploreFrac 0.25), and exploiters stay within
	// scale*support of the incumbent.
	if near < n/2 {
		t.Fatalf("only %d/%d draws near the incumbent", near, n)
	}
	if near == n {
		t.Fatal("no exploration at all; ExploreFrac ignored")
	}
}

func TestMCMCUnknownVariableFallsBack(t *testing.T) {
	s := MCMC(MCMCOptions{})
	d := dist.Uniform(0, 1)
	fb := []Feedback{{Params: map[string]float64{"other": 0.5}, Score: 1}}
	sm := s.Sampler(1, 99, 100, fb) // idx 99 of 100 -> exploit mode
	v := sm.Draw("x", d)            // "x" absent from incumbent
	if v < 0 || v > 1 {
		t.Fatalf("fallback draw %g out of bounds", v)
	}
}

func TestMCMCEliteSmallerThanRequested(t *testing.T) {
	s := MCMC(MCMCOptions{Elite: 10})
	fb := []Feedback{{Params: map[string]float64{"x": 1}, Score: 0}}
	// Must not panic with fewer feedback entries than Elite.
	v := s.Sampler(1, 99, 100, fb).Draw("x", dist.Uniform(0, 2))
	if v < 0 || v > 2 {
		t.Fatalf("draw %g out of bounds", v)
	}
}

func TestSortBestFirstMinimize(t *testing.T) {
	fb := []Feedback{{Score: 3}, {Score: 1}, {Score: 2}}
	SortBestFirst(fb, true)
	if fb[0].Score != 1 || fb[2].Score != 3 {
		t.Fatalf("minimize sort wrong: %v", fb)
	}
	SortBestFirst(fb, false)
	if fb[0].Score != 3 || fb[2].Score != 1 {
		t.Fatalf("maximize sort wrong: %v", fb)
	}
}

func TestSortBestFirstNaNSinks(t *testing.T) {
	fb := []Feedback{{Score: math.NaN()}, {Score: 5}, {Score: math.NaN()}, {Score: 2}}
	SortBestFirst(fb, true)
	if fb[0].Score != 2 || fb[1].Score != 5 {
		t.Fatalf("NaN handling wrong: %v", fb)
	}
	if !math.IsNaN(fb[2].Score) || !math.IsNaN(fb[3].Score) {
		t.Fatalf("NaNs should sink to the end: %v", fb)
	}
}

// The bounded feedback views merge sorted lists and rely on ties keeping
// their input order, NaN ties included.
func TestSortBestFirstStable(t *testing.T) {
	nan := math.NaN()
	scores := []float64{1, nan, 0, 1, nan, 0, 1}
	for _, minimize := range []bool{true, false} {
		fb := make([]Feedback, len(scores))
		for i, s := range scores {
			fb[i] = Feedback{Params: map[string]float64{"i": float64(i)}, Score: s}
		}
		SortBestFirst(fb, minimize)
		want := []float64{2, 5, 0, 3, 6, 1, 4}
		if !minimize {
			want = []float64{0, 3, 6, 2, 5, 1, 4}
		}
		for k, f := range fb {
			if f.Params["i"] != want[k] {
				t.Fatalf("minimize=%v: position %d holds input %v, want %v", minimize, k, f.Params["i"], want[k])
			}
		}
	}
}

// Property: sorting is a permutation and fb[0] is extremal among non-NaN.
func TestPropertySortBestFirst(t *testing.T) {
	f := func(scores []float64, minimize bool) bool {
		fb := make([]Feedback, len(scores))
		sum := 0.0
		nonNaN := []float64{}
		for i, s := range scores {
			fb[i] = Feedback{Score: s}
			if !math.IsNaN(s) {
				sum += s
				nonNaN = append(nonNaN, s)
			}
		}
		SortBestFirst(fb, minimize)
		if len(fb) != len(scores) {
			return false
		}
		if len(nonNaN) == 0 {
			return true
		}
		best := nonNaN[0]
		for _, s := range nonNaN[1:] {
			if minimize && s < best || !minimize && s > best {
				best = s
			}
		}
		return fb[0].Score == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MCMC draws always respect the distribution's bounds regardless
// of feedback contents.
func TestPropertyMCMCInBounds(t *testing.T) {
	s := MCMC(MCMCOptions{})
	f := func(seed int64, incumbent float64, idx uint8) bool {
		if math.IsNaN(incumbent) || math.IsInf(incumbent, 0) {
			return true
		}
		d := dist.Uniform(-3, 3)
		fb := []Feedback{{Params: map[string]float64{"x": incumbent}, Score: 1}}
		v := s.Sampler(seed, int(idx), 256, fb).Draw("x", d)
		return v >= -3 && v <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

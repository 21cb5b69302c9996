package core

import (
	"runtime"
	"testing"

	"repro/internal/agg"
	"repro/internal/dist"
	"repro/internal/strategy"
)

// The hot-path microbenchmarks measure the sample inner loop the way the
// paper's workloads drive it: a tight region with a cheap body that draws a
// few tunables in a loop, reads exposed inputs, and commits a scalar result.
// BenchmarkSamplingHotPath is the sampling-throughput benchmark (its
// allocation count is pinned by TestSamplingHotPathAllocCeiling); the
// steady-state benchmarks isolate one primitive each.

// hotPathSamples is the per-region sample count of the throughput benchmark:
// large enough to amortize round setup, small enough to run many rounds.
const hotPathSamples = 256

// hotPathDist is the hot-path tunables' distribution.
var hotPathDist = dist.Uniform(0, 1)

// BenchmarkSamplingHotPath runs one sampling-bound region per iteration:
// tight region, cheap body, MaxPool = NumCPU. The custom samples/sec metric
// is per sampling process, not per region.
func BenchmarkSamplingHotPath(b *testing.B) {
	tuner := New(Options{MaxPool: runtime.NumCPU(), Seed: 1, Incremental: true})
	b.ReportAllocs()
	b.ResetTimer()
	err := tuner.Run(func(p *P) error {
		p.Expose("input", 0.5)
		for i := 0; i < b.N; i++ {
			if err := hotPathRegion(p); err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N*hotPathSamples)/b.Elapsed().Seconds(), "samples/sec")
}

// hotPathRegion runs one hot-path region in p, which must expose "input":
// hotPathSamples sampling processes whose cheap body draws two tunables and
// reads the input 16 times, aggregated incrementally into one Avg.
func hotPathRegion(p *P) error {
	_, err := p.Region(RegionSpec{
		Name:      "hot",
		Samples:   hotPathSamples,
		Aggregate: map[string]agg.Kind{"y": agg.Avg},
	}, func(sp *SP) error {
		acc := 0.0
		for j := 0; j < 16; j++ {
			acc += sp.Float("alpha", hotPathDist) + sp.Float("beta", hotPathDist)
			acc += sp.Load("input").(float64)
		}
		sp.Commit("y", acc)
		return nil
	})
	return err
}

// benchInSP runs fn once inside a single sampling process of a minimal
// region, for steady-state primitive benchmarks.
func benchInSP(b *testing.B, setup func(p *P), fn func(sp *SP)) {
	b.Helper()
	tuner := New(Options{MaxPool: runtime.NumCPU(), Seed: 1})
	err := tuner.Run(func(p *P) error {
		if setup != nil {
			setup(p)
		}
		_, err := p.Region(RegionSpec{Name: "micro", Samples: 1}, func(sp *SP) error {
			fn(sp)
			return nil
		})
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFloatSteadyState measures a repeated draw of an already-drawn
// tunable — the inner-loop read pattern of every kernel body.
func BenchmarkFloatSteadyState(b *testing.B) {
	d := dist.Uniform(0, 1)
	b.ReportAllocs()
	benchInSP(b, nil, func(sp *SP) {
		sp.Float("x", d) // first draw
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sp.Float("x", d)
		}
	})
}

// BenchmarkLoadSteadyState measures repeated reads of one exposed variable
// from inside a sampling process.
func BenchmarkLoadSteadyState(b *testing.B) {
	b.ReportAllocs()
	benchInSP(b, func(p *P) { p.Expose("input", 1.25) }, func(sp *SP) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sp.Load("input")
		}
	})
}

// BenchmarkCommitSteadyState measures re-committing one sample result
// variable (Commit overwrites, so this is the steady-state write path).
func BenchmarkCommitSteadyState(b *testing.B) {
	b.ReportAllocs()
	benchInSP(b, nil, func(sp *SP) {
		sp.Commit("y", 1.0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.Commit("y", 2.0)
		}
	})
}

// BenchmarkScoredRegionRounds runs one round of a scored 64-sample region per
// iteration under the feedback-driven MCMC strategy, so round i is handed the
// feedback of all i-1 rounds before it. Per-round cost must stay flat however
// large b.N (and with it the feedback history) grows.
func BenchmarkScoredRegionRounds(b *testing.B) {
	tuner := New(Options{MaxPool: runtime.NumCPU(), Seed: 1})
	d := dist.Uniform(0, 1)
	spec := RegionSpec{
		Name:     "scored",
		Samples:  64,
		Minimize: true,
		Strategy: strategy.MCMC(strategy.MCMCOptions{}),
		Score: func(sp *SP) float64 {
			v, _ := sp.Get("y")
			return v.(float64)
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	err := tuner.Run(func(p *P) error {
		for i := 0; i < b.N; i++ {
			_, err := p.Region(spec, func(sp *SP) error {
				x, y := sp.Float("x", d), sp.Float("y", d)
				sp.Commit("y", (x-0.3)*(x-0.3)+(y-0.7)*(y-0.7))
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

package core

import (
	"runtime"
	"testing"

	"repro/internal/dist"
)

// The steady-state allocation contract of the sample inner loop: once a
// tunable has been drawn, an exposed variable loaded, and a result variable
// committed, repeating that operation inside the same sampling process must
// not allocate. This is what keeps a thousands-of-samples tuning run off the
// GC (DESIGN.md §8).

// allocsInSP reports testing.AllocsPerRun of fn inside a single sampling
// process of a minimal region.
func allocsInSP(t *testing.T, setup func(p *P), fn func(sp *SP)) float64 {
	t.Helper()
	var allocs float64
	tuner := New(Options{MaxPool: 1, Seed: 1})
	err := tuner.Run(func(p *P) error {
		if setup != nil {
			setup(p)
		}
		_, err := p.Region(RegionSpec{Name: "alloc", Samples: 1}, func(sp *SP) error {
			allocs = testing.AllocsPerRun(100, func() { fn(sp) })
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

func TestFloatSteadyStateAllocFree(t *testing.T) {
	d := dist.Uniform(0, 1)
	allocs := allocsInSP(t, nil, func(sp *SP) {
		// First call interns and draws; AllocsPerRun's warm-up run absorbs it.
		_ = sp.Float("x", d)
	})
	if allocs != 0 {
		t.Errorf("steady-state Float allocates %.1f objects per call, want 0", allocs)
	}
}

func TestLoadSteadyStateAllocFree(t *testing.T) {
	allocs := allocsInSP(t, func(p *P) { p.Expose("input", 1.25) }, func(sp *SP) {
		_ = sp.Load("input")
	})
	if allocs != 0 {
		t.Errorf("steady-state Load allocates %.1f objects per call, want 0", allocs)
	}
}

func TestCommitSteadyStateAllocFree(t *testing.T) {
	allocs := allocsInSP(t, nil, func(sp *SP) {
		// Constant operand: boxing is static, so the call itself must be free.
		sp.Commit("y", 2.0)
	})
	if allocs != 0 {
		t.Errorf("steady-state Commit allocates %.1f objects per call, want 0", allocs)
	}
}

// hotPathAllocCeiling bounds the allocations of one steady-state hot-path
// region (256 samples): 582 recorded when the sampling hot path was
// overhauled, plus 25%. Most of them are per-sample bookkeeping (the
// sampling goroutine, ring drain waits); this ceiling keeps them from
// quietly growing until they are removed.
const hotPathAllocCeiling = 727

// TestSamplingHotPathAllocCeiling pins the allocations of the
// BenchmarkSamplingHotPath region once its first run has interned every
// name and warmed every pool.
func TestSamplingHotPathAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector include re-allocated sync.Pool objects")
	}
	var allocs float64
	tuner := New(Options{MaxPool: runtime.NumCPU(), Seed: 1, Incremental: true})
	err := tuner.Run(func(p *P) error {
		p.Expose("input", 0.5)
		var err error
		allocs = testing.AllocsPerRun(20, func() {
			if rerr := hotPathRegion(p); rerr != nil {
				err = rerr
			}
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > hotPathAllocCeiling {
		t.Errorf("hot-path region allocates %.0f objects, want <= %d", allocs, hotPathAllocCeiling)
	}
}

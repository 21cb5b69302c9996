package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
)

// Multi-tenant throughput benchmark: N concurrent tuning jobs sharing one
// Runtime and one loopback worker fleet, each job capped at a parallelism
// the fleet can hold twice over. A single job cannot fill the fleet (its cap
// is half the slots), so its point is the serial baseline; two co-tenant
// jobs interleave on the shared pool and should roughly double aggregate
// sampling throughput, and four show saturation — adding tenants past the
// fleet's capacity redistributes slots instead of adding throughput.

// Multi-job workload defaults, also used for BENCH_<pr>.json.
const (
	multiJobFleetSlots    = 4 // single-slot loopback workers ("a pool sized for 2 jobs")
	multiJobCap           = 2 // per-job MaxParallel: half the fleet
	multiJobSamples       = 16
	multiJobRounds        = 2
	multiJobServiceMicros = 2000
)

// MultiJobCounts are the concurrent-job counts the benchmark sweeps.
var MultiJobCounts = []int{1, 2, 4}

// MultiJobPoint is one multi-tenant throughput measurement.
type MultiJobPoint struct {
	Jobs          int     `json:"jobs"`
	Samples       int     `json:"samples"` // aggregate across jobs
	ElapsedMs     float64 `json:"elapsed_ms"`
	SamplesPerSec float64 `json:"samples_per_sec"`
}

// RunMultiJob measures aggregate sampling throughput for each job count: a
// fresh loopback fleet and shared Runtime per point, jobs launched together,
// elapsed measured to the last job's completion.
func RunMultiJob(counts []int) ([]MultiJobPoint, error) {
	pts := make([]MultiJobPoint, 0, len(counts))
	for _, n := range counts {
		el, err := multiJobElapsed(n)
		if err != nil {
			return nil, fmt.Errorf("%d jobs: %w", n, err)
		}
		samples := n * multiJobRounds * multiJobSamples
		pts = append(pts, MultiJobPoint{
			Jobs: n, Samples: samples,
			ElapsedMs:     float64(el.Nanoseconds()) / 1e6,
			SamplesPerSec: float64(samples) / el.Seconds(),
		})
	}
	return pts, nil
}

// multiJobElapsed times n concurrent jobs on one shared Runtime and fleet.
func multiJobElapsed(n int) (time.Duration, error) {
	ex, cleanup, err := loopbackFleet(multiJobFleetSlots)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	// The local pool is admission headroom only (samples execute on the
	// fleet); it must leave the 75% tuning threshold above the fleet's
	// in-flight samples or round turnover serializes on tuning readmission.
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 2 * multiJobFleetSlots, Executor: ex})
	errs := make([]error, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		job := rt.NewJob(core.JobSpec{
			Name:        fmt.Sprintf("bench%d", i),
			Seed:        int64(i + 1),
			MaxParallel: multiJobCap,
		}, core.JobEnv{})
		wg.Add(1)
		go func(i int, job *core.Tuner) {
			defer wg.Done()
			defer job.Close()
			spec, body := remote.SyntheticSpec(multiJobSamples)
			errs[i] = job.Run(func(p *core.P) error {
				p.Expose(remote.SyntheticServiceKey, multiJobServiceMicros)
				for round := 0; round < multiJobRounds; round++ {
					res, err := p.Region(spec, body)
					if err != nil {
						return err
					}
					if got := res.Len("f"); got != multiJobSamples {
						return fmt.Errorf("round %d lost samples: %d of %d committed",
							round, got, multiJobSamples)
					}
				}
				return nil
			})
		}(i, job)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// MultiJobPerf runs the multi-tenant sweep with the default workload and
// returns it as perf-report entries named multi_job_<N>. SamplesPerSec is
// aggregate throughput across the N concurrent jobs.
func MultiJobPerf() ([]PerfResult, error) {
	pts, err := RunMultiJob(MultiJobCounts)
	if err != nil {
		return nil, err
	}
	out := make([]PerfResult, 0, len(pts))
	for _, p := range pts {
		out = append(out, PerfResult{
			Name:          fmt.Sprintf("multi_job_%d", p.Jobs),
			NsPerOp:       p.ElapsedMs * 1e6 / float64(p.Samples),
			SamplesPerSec: p.SamplesPerSec,
		})
	}
	return out, nil
}

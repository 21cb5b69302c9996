package bench

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
)

// Worker-scaling workload: the same synthetic sampling region run in-process
// and against loopback worker fleets of increasing size. The synthetic
// region's cost is a fixed wall-clock service time per sample (simulated
// compute), so the measurement isolates what the distributed executor adds —
// dispatch, steal, snapshot shipping, result streaming — and how throughput
// scales with workers, independent of host core count.

// scalingPoint is one worker-scaling measurement.
type scalingPoint struct {
	Mode          string // "in-process" or "workers-N"
	Samples       int
	ElapsedMs     float64
	SamplesPerSec float64
}

// runWorkerScaling measures the synthetic workload in-process and against
// loopback fleets of the given sizes (single-slot workers, so fleet size is
// the concurrency). The in-process point is always first.
func runWorkerScaling(samples, serviceMicros int, fleets []int) ([]scalingPoint, error) {
	pts := make([]scalingPoint, 0, len(fleets)+1)
	el, err := scalingElapsed(nil, samples, serviceMicros)
	if err != nil {
		return nil, fmt.Errorf("in-process: %w", err)
	}
	pts = append(pts, newScalingPoint("in-process", samples, el))
	for _, n := range fleets {
		ex, cleanup, err := loopbackFleet(n)
		if err != nil {
			return nil, fmt.Errorf("fleet of %d: %w", n, err)
		}
		el, err := scalingElapsed(ex, samples, serviceMicros)
		cleanup()
		if err != nil {
			return nil, fmt.Errorf("fleet of %d: %w", n, err)
		}
		pts = append(pts, newScalingPoint(fmt.Sprintf("workers-%d", n), samples, el))
	}
	return pts, nil
}

func newScalingPoint(mode string, samples int, el time.Duration) scalingPoint {
	return scalingPoint{
		Mode: mode, Samples: samples,
		ElapsedMs:     float64(el.Nanoseconds()) / 1e6,
		SamplesPerSec: float64(samples) / el.Seconds(),
	}
}

// loopbackFleet builds a NetExecutor fed by n single-slot in-process workers
// over net.Pipe. Dispatcher and workers use separate Builtins registries and
// no shared value table — the standalone wbtune-worker configuration, so the
// full wire path (snapshot shipping included) is on the clock.
func loopbackFleet(n int) (*remote.NetExecutor, func(), error) {
	ex := remote.NewExecutor(remote.ExecutorOptions{Registry: remote.Builtins()})
	workers := make([]*remote.Worker, 0, n)
	cleanup := func() {
		ex.Close()
		for _, w := range workers {
			w.Close()
		}
	}
	for i := 0; i < n; i++ {
		w := remote.NewWorker(remote.WorkerOptions{
			Name: fmt.Sprintf("bench-w%d", i), Slots: 1, Registry: remote.Builtins(),
		})
		a, b := net.Pipe()
		go w.ServeConn(a)
		if err := ex.AddConn(b); err != nil {
			cleanup()
			return nil, nil, err
		}
		workers = append(workers, w)
	}
	return ex, cleanup, nil
}

// scalingElapsed times one synthetic region: samples sampling processes of
// serviceMicros each, through the given executor (nil = in-process) on a
// single-slot local pool so added concurrency comes only from workers.
func scalingElapsed(ex core.Executor, samples, serviceMicros int) (time.Duration, error) {
	opts := core.Options{MaxPool: 1, Seed: 1}
	if ex != nil {
		opts.Executor = ex
	}
	tuner := core.New(opts)
	spec, body := remote.SyntheticSpec(samples)
	var elapsed time.Duration
	err := tuner.Run(func(p *core.P) error {
		p.Expose(remote.SyntheticServiceKey, serviceMicros)
		t0 := time.Now()
		res, err := p.Region(spec, body)
		elapsed = time.Since(t0)
		if err != nil {
			return err
		}
		if got := res.Len("f"); got != samples {
			return fmt.Errorf("scaling run lost samples: %d of %d committed", got, samples)
		}
		return nil
	})
	return elapsed, err
}

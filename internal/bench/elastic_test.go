package bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/remote"
)

// Bursty elastic-fleet workload: four co-tenant jobs fire staggered bursts
// of sampling rounds with idle gaps between them — the load shape static
// sizing handles worst. The static mode runs a hand-sized fleet at the burst
// peak (idle through every gap); the elastic mode starts from one worker and
// lets the wait-driven FleetController grow and shrink the fleet.
const (
	elasticJobs          = 4
	elasticSamples       = 16 // per round
	elasticRounds        = 2  // rounds per burst
	elasticBursts        = 4
	elasticGapMs         = 25 // idle between bursts
	elasticStaggerMs     = 8  // per-job start offset
	elasticServiceMicros = 2000
	elasticPeakWorkers   = 8 // the hand-sized static fleet
	// The local pool is admission headroom for the tuning processes plus a
	// margin; it is deliberately smaller than peak sampling demand so the
	// Algorithm 1 admission wait — the autoscaler's control signal — actually
	// reflects fleet pressure instead of hiding it in the dispatch queue.
	elasticMaxPool = 8
)

// elasticMinRatio is the acceptance floor on elastic/static throughput under
// the bursty load.
const elasticMinRatio = 0.90

// elasticPairs is how many paired static/elastic runs the floor takes; it
// keeps the best-ratio pair. The workload is wall-clock dominated
// (sleep-based synthetic service time, millisecond burst gaps), so a single
// pair carries several percent of scheduler jitter in either direction;
// best-of-N checks the autoscaler's capability, not the noise. The two runs
// of a pair execute at the same time (each uses a fraction of one CPU), so
// host jitter such as vCPU steal and timer latency lands on both sides of
// the ratio instead of on one run only.
const elasticPairs = 3

// elasticPoint is one bursty-load measurement.
type elasticPoint struct {
	Workers       int
	SamplesPerSec float64
	ScaleUps      int64
	ScaleDowns    int64
}

// TestElasticFleetThroughputFloor is the elastic fleet's acceptance check:
// under the bursty load, a fleet the autoscaler grows from one worker must
// sustain at least elasticMinRatio of the throughput of a static fleet
// hand-sized at the burst peak, best of elasticPairs paired runs.
func TestElasticFleetThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based; skipped in -short")
	}
	t.Cleanup(leakcheck.Check(t))
	best := 0.0
	for i := 0; i < elasticPairs; i++ {
		var static, elastic elasticPoint
		var serr, eerr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); static, serr = elasticBursty(false) }()
		go func() { defer wg.Done(); elastic, eerr = elasticBursty(true) }()
		wg.Wait()
		if serr != nil {
			t.Fatalf("static fleet: %v", serr)
		}
		if eerr != nil {
			t.Fatalf("elastic fleet: %v", eerr)
		}
		ratio := elastic.SamplesPerSec / static.SamplesPerSec
		t.Logf("pair %d: static %.0f samples/sec (%d workers), elastic %.0f samples/sec (%d workers at end, %d ups, %d downs): %.1f%%",
			i, static.SamplesPerSec, static.Workers, elastic.SamplesPerSec, elastic.Workers,
			elastic.ScaleUps, elastic.ScaleDowns, 100*ratio)
		if ratio > best {
			best = ratio
		}
	}
	if best < elasticMinRatio {
		t.Errorf("elastic fleet sustains %.1f%% of static-fleet throughput, want >= %.0f%%",
			100*best, 100*elasticMinRatio)
	}
}

// elasticBursty runs the bursty 4-job workload on either a hand-sized
// static fleet or an autoscaled elastic one and reports the measurement.
// (Named return: the elastic mode's deferred teardown fills in the final
// fleet size and scale-event counts.)
func elasticBursty(elastic bool) (pt elasticPoint, err error) {
	pt = elasticPoint{Workers: elasticPeakWorkers}
	var ex *remote.NetExecutor
	var rt *core.Runtime
	if elastic {
		oreg := obs.NewRegistry()
		ex = remote.NewExecutor(remote.ExecutorOptions{Registry: remote.Builtins(), Obs: oreg})
		defer ex.Close()
		rt = core.NewRuntime(core.RuntimeOptions{MaxPool: elasticMaxPool, Executor: ex})
		fc := remote.NewFleetController(ex, remote.FleetOptions{
			Load:     rt.Load,
			Registry: remote.Builtins(),
			Min:      1,
			Max:      elasticPeakWorkers,
			Setpoint: 500 * time.Microsecond,
			Interval: 2 * time.Millisecond,
			Cooldown: 4 * time.Millisecond,
			// Twenty quiet ticks (40ms) before a drain: longer than a burst
			// gap, so mid-run drains only happen under sustained idleness.
			QuietTicks: 20,
			Obs:        oreg,
		})
		if err := fc.Start(); err != nil {
			return pt, err
		}
		defer fc.Stop()
		defer func() {
			pt.Workers = fc.Size()
			pt.ScaleUps = oreg.Counter(remote.MetricScaleEvents, "dir", "up").Value()
			pt.ScaleDowns = oreg.Counter(remote.MetricScaleEvents, "dir", "down").Value()
		}()
	} else {
		var cleanup func()
		ex, cleanup, err = loopbackFleet(elasticPeakWorkers)
		if err != nil {
			return pt, err
		}
		defer cleanup()
		rt = core.NewRuntime(core.RuntimeOptions{MaxPool: elasticMaxPool, Executor: ex})
	}

	pt.SamplesPerSec, err = elasticRunJobs(rt)
	return pt, err
}

// elasticRunJobs fires the staggered bursty workload on rt and returns its
// aggregate samples/sec.
func elasticRunJobs(rt *core.Runtime) (float64, error) {
	errs := make([]error, elasticJobs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < elasticJobs; i++ {
		job := rt.NewJob(core.JobSpec{
			Name: fmt.Sprintf("bursty%d", i),
			Seed: int64(i + 1),
		}, core.JobEnv{})
		wg.Add(1)
		go func(i int, job *core.Tuner) {
			defer wg.Done()
			defer job.Close()
			time.Sleep(time.Duration(i) * elasticStaggerMs * time.Millisecond)
			spec, body := remote.SyntheticSpec(elasticSamples)
			errs[i] = job.Run(func(p *core.P) error {
				p.Expose(remote.SyntheticServiceKey, elasticServiceMicros)
				for burst := 0; burst < elasticBursts; burst++ {
					if burst > 0 {
						time.Sleep(elasticGapMs * time.Millisecond)
					}
					for round := 0; round < elasticRounds; round++ {
						res, err := p.Region(spec, body)
						if err != nil {
							return err
						}
						if got := res.Len("f"); got != elasticSamples {
							return fmt.Errorf("burst %d round %d lost samples: %d of %d committed",
								burst, round, got, elasticSamples)
						}
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
	return float64(elasticJobs*elasticBursts*elasticRounds*elasticSamples) / elapsed.Seconds(), nil
}

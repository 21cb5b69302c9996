package bench

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/strategy"
)

// Incremental-store snapshot workload: a tuning program exposes one large
// blob once and re-exposes one small knob every round — the shape where
// delta snapshot shipping pays. The same workload runs on two loopback
// fleets: one with the default dispatcher snapshot cache (full ship once per
// worker, key-level deltas after) and one whose cache holds no delta base
// (SnapCacheBytes 1, so every version is a full re-ship).
const (
	snapDeltaBlobLen = 16384 // float64s in the static blob (~128 KiB encoded)
	snapDeltaRounds  = 16    // versions of the store, one knob change each
	snapDeltaSamples = 8     // per round
	snapDeltaWorkers = 2
	snapDeltaRuns    = 3 // runs per mode; the worst-case byte count is kept
)

// snapDeltaMinRatio is the acceptance floor on full/delta snapshot bytes for
// the incremental workload.
const snapDeltaMinRatio = 5.0

// TestSnapshotDeltaByteFloor is delta shipping's acceptance check: on the
// incremental workload, the full re-ship fleet must ship at least
// snapDeltaMinRatio times the snapshot bytes of the delta fleet, and every
// run of either fleet must dump byte-identically to the in-process run.
// Shipped bytes jitter slightly with which workers a round's tasks reach, so
// each side keeps its worst case over snapDeltaRuns runs.
func TestSnapshotDeltaByteFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the incremental workload seven times; skipped in -short")
	}
	t.Cleanup(leakcheck.Check(t))
	local, err := snapDeltaProgram(nil)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	measure := func(mode string, snapCacheBytes int) int64 {
		t.Helper()
		var worst int64
		for i := 0; i < snapDeltaRuns; i++ {
			dump, bytes, err := snapDeltaFleet(snapCacheBytes)
			if err != nil {
				t.Fatalf("%s fleet: %v", mode, err)
			}
			if dump != local {
				t.Fatalf("%s fleet diverged from in-process run:\nlocal:\n%s\nremote:\n%s", mode, local, dump)
			}
			worst = max(worst, bytes)
		}
		return worst
	}
	delta := measure("delta", 0)
	full := measure("full re-ship", 1)
	if delta == 0 || full == 0 {
		t.Fatalf("no snapshot traffic measured (delta %d, full %d)", delta, full)
	}
	ratio := float64(full) / float64(delta)
	t.Logf("snapshot bytes: full re-ship %d, delta %d: %.1fx", full, delta, ratio)
	if ratio < snapDeltaMinRatio {
		t.Errorf("delta shipping cuts incremental snapshot bytes %.1fx vs full re-ship, want >= %.0fx",
			ratio, snapDeltaMinRatio)
	}
}

// snapDeltaProgram drives the incremental workload through exec (nil =
// in-process) and returns the per-round dump, which is byte-comparable
// across executors and ship modes.
func snapDeltaProgram(exec core.Executor) (string, error) {
	blob := make([]float64, snapDeltaBlobLen)
	for i := range blob {
		blob[i] = float64(i) * 0.001
	}
	tuner := core.New(core.Options{MaxPool: 4, Seed: 17, Executor: exec})
	var dump string
	err := tuner.Run(func(p *core.P) error {
		p.Expose("blob", blob)
		spec := core.RegionSpec{
			Name:     "snapdelta",
			Samples:  snapDeltaSamples,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
		}
		body := func(sp *core.SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			b := sp.Load("blob").([]float64)
			k := sp.Load("knob").(float64)
			sp.Commit("y", x*k+b[int(x*1000)%len(b)])
			return nil
		}
		for round := 0; round < snapDeltaRounds; round++ {
			p.Expose("knob", 1.0+float64(round))
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			dump += fmt.Sprintf("round %d: best %.6f\n", round, res.BestScore())
		}
		return nil
	})
	return dump, err
}

// snapDeltaFleet runs the workload on a fresh loopback fleet whose
// dispatcher caches snapCacheBytes of encoded snapshots per job, and returns
// the dump and the snapshot bytes shipped (full + delta).
func snapDeltaFleet(snapCacheBytes int) (string, int64, error) {
	reg := remote.NewRegistry()
	oreg := obs.NewRegistry()
	ex := remote.NewExecutor(remote.ExecutorOptions{
		Registry: reg, Dynamic: true, Obs: oreg, SnapCacheBytes: snapCacheBytes,
	})
	workers := make([]*remote.Worker, 0, snapDeltaWorkers)
	defer func() {
		ex.Close()
		for _, w := range workers {
			w.Close()
		}
	}()
	for i := 0; i < snapDeltaWorkers; i++ {
		w := remote.NewWorker(remote.WorkerOptions{
			Name: fmt.Sprintf("snap-w%d", i), Slots: 2, Registry: reg,
		})
		a, b := net.Pipe()
		go w.ServeConn(a)
		if err := ex.AddConn(b); err != nil {
			return "", 0, err
		}
		workers = append(workers, w)
	}
	dump, err := snapDeltaProgram(ex)
	if err != nil {
		return "", 0, err
	}
	bytes := oreg.Counter(remote.MetricSnapshotBytes, "mode", "full").Value() +
		oreg.Counter(remote.MetricSnapshotBytes, "mode", "delta").Value()
	return dump, bytes, nil
}

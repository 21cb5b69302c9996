package bench

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/remote"
)

// renderTable1 runs the full Table I sweep at a fixed seed and returns the
// rendered table.
func renderTable1(seed int64) string {
	var buf bytes.Buffer
	WriteTable1(&buf, Table1All(seed))
	return buf.String()
}

// TestDistributedTable1Parity is the end-to-end determinism gate for the
// distributed executor: the full Table I sweep, re-run with every white-box
// sampling process dispatched to a loopback worker fleet, must render byte
// for byte identically to the in-process run at the same seed. Samplers are
// rebuilt worker-side from (seed, group, n, feedback), results re-enter the
// same aggregation paths, and regions the executor cannot take (CV, Sync
// bodies) fall back to the deterministic local path — so any byte of
// divergence is a real determinism bug.
func TestDistributedTable1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I sweep twice; skipped in -short")
	}
	t.Cleanup(leakcheck.Check(t))
	local := renderTable1(1)

	// Loopback fleet in the same-process configuration: shared dynamic
	// registry (bench regions are registered per round) and a shared value
	// table so opaque commits survive the wire.
	reg := remote.NewRegistry()
	vals := remote.NewValueTable()
	ex := remote.NewExecutor(remote.ExecutorOptions{Registry: reg, Dynamic: true, Values: vals})
	var workers []*remote.Worker
	for i := 0; i < 2; i++ {
		w := remote.NewWorker(remote.WorkerOptions{
			Name: fmt.Sprintf("t1-w%d", i), Slots: 4, Registry: reg, Values: vals,
		})
		a, b := net.Pipe()
		go w.ServeConn(a)
		if err := ex.AddConn(b); err != nil {
			t.Fatalf("AddConn: %v", err)
		}
		workers = append(workers, w)
	}
	t.Cleanup(func() {
		ex.Close()
		for _, w := range workers {
			w.Close()
		}
	})

	prev := OptionsHook
	OptionsHook = func(o core.Options) core.Options {
		o.Executor = ex
		return o
	}
	t.Cleanup(func() { OptionsHook = prev })
	distributed := renderTable1(1)

	if distributed != local {
		t.Errorf("distributed Table I diverged from local run\n--- local ---\n%s--- distributed ---\n%s", local, distributed)
	}
}

// TestWorkerScalingThroughput is the perf acceptance gate: with a fixed
// per-sample service time, four single-slot workers must deliver at least 3x
// the aggregate samples/sec of one, and a single worker must stay within 15%
// of in-process throughput (the wire protocol's overhead budget). The
// service time is set well above per-sample RPC cost so the bound holds on
// slow or contended hosts too.
func TestWorkerScalingThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based; skipped in -short")
	}
	t.Cleanup(leakcheck.Check(t))
	pts, err := runWorkerScaling(32, 5000, []int{1, 4})
	if err != nil {
		t.Fatalf("scaling run: %v", err)
	}
	byMode := map[string]scalingPoint{}
	for _, p := range pts {
		byMode[p.Mode] = p
		t.Logf("%-12s %7.1f samples/sec (%.1f ms)", p.Mode, p.SamplesPerSec, p.ElapsedMs)
	}
	inproc, w1, w4 := byMode["in-process"], byMode["workers-1"], byMode["workers-4"]
	if speedup := w4.SamplesPerSec / w1.SamplesPerSec; speedup < 3 {
		t.Errorf("4-worker speedup %.2fx over 1 worker, want >= 3x", speedup)
	}
	if overhead := inproc.SamplesPerSec/w1.SamplesPerSec - 1; overhead > 0.15 {
		t.Errorf("single-worker dispatch overhead %.1f%% vs in-process, want <= 15%%", overhead*100)
	}
}

package bench

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/remote"
	"repro/internal/strategy"
)

// migFleet builds a two-worker loopback fleet in the same-process Dynamic
// configuration and returns the executor for explicit Runtime wiring.
func migFleet(t *testing.T) *remote.NetExecutor {
	t.Helper()
	reg := remote.NewRegistry()
	vals := remote.NewValueTable()
	ex := remote.NewExecutor(remote.ExecutorOptions{Registry: reg, Dynamic: true, Values: vals})
	var workers []*remote.Worker
	for i := 0; i < 2; i++ {
		w := remote.NewWorker(remote.WorkerOptions{
			Name: fmt.Sprintf("mig-w%d", i), Slots: 4, Registry: reg, Values: vals,
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
	return ex
}

// errMigrate is the sentinel a to-be-migrated run returns to stop at a
// round boundary without writing a final (complete) checkpoint.
var errMigrate = errors.New("stopping for migration")

// migProgram runs `rounds` feedback-driven MCMC rounds and folds every
// observable outcome into a dump string. With stopAfter > 0 the program
// returns errMigrate at that round boundary — the migration handoff point.
func migProgram(job *core.Tuner, rounds, stopAfter int) (string, error) {
	var buf strings.Builder
	spec := core.RegionSpec{
		Name: "mig", Samples: 6,
		Strategy: strategy.MCMC(strategy.MCMCOptions{}),
		Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
	}
	body := func(sp *core.SP) error {
		x := sp.Float("x", dist.Uniform(0, 1))
		sp.Work(0.1)
		sp.Commit("y", x*sp.Load("gain").(float64))
		return nil
	}
	err := job.Run(func(p *core.P) error {
		p.Expose("gain", 1.5)
		for r := 0; r < rounds; r++ {
			if stopAfter > 0 && r == stopAfter {
				return errMigrate
			}
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			b := res.BestIndex()
			fmt.Fprintf(&buf, "r%d best=%d score=%v x=%v\n", r, b, res.BestScore(), res.Params(b)["x"])
		}
		return nil
	})
	return buf.String(), err
}

// TestMigrationUnderContention is the live-migration gate: of two jobs
// sharing a worker fleet through separate Runtimes, one is checkpointed at
// a round boundary, closed (releasing its fleet state), and resumed on the
// other Runtime mid-contention. The migrated job's output must be byte-
// identical to the same job run uninterrupted, and the co-tenant must
// render exactly its solo baseline — a migration is invisible to both.
func TestMigrationUnderContention(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const rounds = 8

	// Baselines, each uninterrupted on its own fleet-backed runtime.
	exBase := migFleet(t)
	rtBase := core.NewRuntime(core.RuntimeOptions{MaxPool: 8, Executor: exBase})
	ctl := rtBase.NewJob(core.JobSpec{Name: "m-ctl", Seed: 11}, core.JobEnv{})
	wantM, err := migProgram(ctl, rounds, 0)
	if err != nil {
		t.Fatalf("control run: %v", err)
	}
	ctl.Close()
	solo := rtBase.NewJob(core.JobSpec{Name: "c-ctl", Seed: 22}, core.JobEnv{})
	wantC, err := migProgram(solo, rounds, 0)
	if err != nil {
		t.Fatalf("co-tenant baseline: %v", err)
	}
	solo.Close()

	// The contended pair: rtA and rtB share one fleet.
	ex := migFleet(t)
	rtA := core.NewRuntime(core.RuntimeOptions{MaxPool: 8, Executor: ex})
	rtB := core.NewRuntime(core.RuntimeOptions{MaxPool: 8, Executor: ex})

	type res struct {
		out string
		err error
	}
	coDone := make(chan res, 1)
	co := rtA.NewJob(core.JobSpec{Name: "c", Seed: 22}, core.JobEnv{})
	go func() {
		out, err := migProgram(co, rounds, 0)
		coDone <- res{out, err}
	}()

	src := rtA.NewJob(core.JobSpec{Name: "m", Seed: 11},
		core.JobEnv{CheckpointTo: &core.CheckpointPolicy{Store: &checkpoint.MemStore{}}})
	if _, err := migProgram(src, rounds, 3); !errors.Is(err, errMigrate) {
		t.Fatalf("partial run: %v, want errMigrate", err)
	}
	st, err := src.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	src.Close() // drop the source job's fleet-wide state before resuming

	dst, err := rtB.ResumeJob(core.JobSpec{Name: "m"}, core.JobEnv{Resume: st})
	if err != nil {
		t.Fatalf("ResumeJob on second runtime: %v", err)
	}
	gotM, err := migProgram(dst, rounds, 0)
	if err != nil {
		t.Fatalf("migrated run: %v", err)
	}
	dst.Close()
	if gotM != wantM {
		t.Errorf("migrated job diverged from uninterrupted control\n--- control ---\n%s--- migrated ---\n%s", wantM, gotM)
	}

	c := <-coDone
	if c.err != nil {
		t.Fatalf("co-tenant run: %v", c.err)
	}
	co.Close()
	if c.out != wantC {
		t.Errorf("co-tenant perturbed by the migration\n--- solo ---\n%s--- contended ---\n%s", wantC, c.out)
	}
}

package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/strategy"
)

// jobProgram runs a small feedback-driven tuning program on the given job
// handle and returns a flat dump of every drawn parameter, committed value,
// and per-round best — the job's complete observable behaviour.
func jobProgram(t *testing.T, job *Tuner) string {
	t.Helper()
	var dump string
	err := job.Run(func(p *P) error {
		p.Expose("bias", 0.25)
		spec := RegionSpec{
			Name:     "r",
			Samples:  6,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score:    func(sp *SP) float64 { return sp.MustGet("y").(float64) },
		}
		body := func(sp *SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			sp.Commit("y", x+sp.Load("bias").(float64))
			return nil
		}
		for round := 0; round < 3; round++ {
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			for g := 0; g < res.N(); g++ {
				dump += fmt.Sprintf("g%d x=%v y=%v\n", g, res.Params(g)["x"], res.MustValue("y", g))
			}
			dump += fmt.Sprintf("best=%d score=%v\n", res.BestIndex(), res.BestScore())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return dump
}

// TestRuntimeJobsDeterministicUnderContention runs each seed once on a
// private single-job tuner and once as one of three co-tenant jobs racing on
// a shared Runtime; every job must reproduce its solo run exactly. Per-job
// seeds, feedback, and exposed stores are fully isolated — multi-tenancy
// changes only the interleaving, never the results.
func TestRuntimeJobsDeterministicUnderContention(t *testing.T) {
	defer leakcheck.Check(t)()
	seeds := []int64{7, 11, 13}
	solo := make([]string, len(seeds))
	for i, seed := range seeds {
		solo[i] = jobProgram(t, New(Options{MaxPool: 4, Seed: seed}))
	}

	rt := NewRuntime(RuntimeOptions{MaxPool: 4})
	got := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		job := rt.NewJob(JobSpec{Name: fmt.Sprintf("j%d", i), Seed: seed, Share: i + 1}, JobEnv{})
		wg.Add(1)
		go func(i int, job *Tuner) {
			defer wg.Done()
			defer job.Close()
			got[i] = jobProgram(t, job)
		}(i, job)
	}
	wg.Wait()
	for i := range seeds {
		if got[i] != solo[i] {
			t.Errorf("job %d (seed %d) diverged from its solo run:\nshared runtime:\n%s\nsolo:\n%s",
				i, seeds[i], got[i], solo[i])
		}
	}
	if rt.InUse() != 0 {
		t.Fatalf("runtime InUse = %d after all jobs finished", rt.InUse())
	}
}

// TestRuntimeJobMetricLabels checks that co-tenant jobs report their region
// metrics under distinct job labels on the shared registry, and that the
// single-job compatibility path stays unlabeled (byte-compatible exposition
// with the pre-runtime engine).
func TestRuntimeJobMetricLabels(t *testing.T) {
	reg := obs.NewRegistry()
	rt := NewRuntime(RuntimeOptions{MaxPool: 4, Obs: reg})
	for _, name := range []string{"alpha", "beta"} {
		job := rt.NewJob(JobSpec{Name: name, Seed: 1}, JobEnv{})
		jobProgram(t, job)
		job.Close()
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp := sb.String()
	for _, want := range []string{
		`wbtuner_samples_total{job="alpha",region="r",result="done"}`,
		`wbtuner_samples_total{job="beta",region="r",result="done"}`,
		`wbtuner_rounds_total{job="alpha",region="r"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("shared exposition missing %s:\n%s", want, exp)
		}
	}

	soloReg := obs.NewRegistry()
	jobProgram(t, New(Options{MaxPool: 4, Seed: 1, Obs: soloReg}))
	sb.Reset()
	if err := soloReg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if strings.Contains(sb.String(), "job=") {
		t.Errorf("single-job exposition grew a job label:\n%s", sb.String())
	}
}

// TestRuntimeDefaultJobNamesAndShares checks the NewJob defaults: jobs
// are named job<N> in creation order, the zero share means 1, and Close is
// idempotent.
func TestRuntimeDefaultJobNamesAndShares(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{MaxPool: 2})
	a := rt.NewJob(JobSpec{}, JobEnv{})
	b := rt.NewJob(JobSpec{}, JobEnv{})
	if a.JobName() != "job1" || b.JobName() != "job2" {
		t.Fatalf("job names = %q, %q", a.JobName(), b.JobName())
	}
	if a.SlotsInUse() != 0 {
		t.Fatalf("fresh job holds %d slots", a.SlotsInUse())
	}
	a.Close()
	a.Close()
	b.Close()
}

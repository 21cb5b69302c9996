package jobs

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// Round is one per-round progress report a running program emits — what a
// watching client sees on the SSE stream.
type Round struct {
	// Seq numbers rounds from 1 in emission order.
	Seq int `json:"seq"`
	// Region names the tuning region the round sampled.
	Region string `json:"region,omitempty"`
	// Score is the round's best score.
	Score float64 `json:"score"`
	// Note carries free-form per-round detail (chosen parameters, ...).
	Note string `json:"note,omitempty"`
}

// RunFunc executes one job's tuning program on its already-created Tuner.
// It reports per-round progress through emit (never nil; safe for
// concurrent use) and returns the job's final result — a deterministic
// function of the spec and seed, so the control-plane parity guarantee
// ("submitted over HTTP equals run directly") can byte-compare it.
type RunFunc func(ctx context.Context, t *core.Tuner, emit func(Round)) (string, error)

// Factory builds a RunFunc from a validated spec — the point where
// spec.Args are parsed. Returning an error refuses the spec (wrapped as
// ErrSpecInvalid by callers that need a typed refusal).
type Factory func(spec core.JobSpec) (RunFunc, error)

// Registry maps program names to factories. A nil *Registry is an empty
// one.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Factory
}

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]Factory)} }

// Register installs a factory under name, replacing any previous one.
func (r *Registry) Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("jobs: Register requires a name and a factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]Factory)
	}
	r.m[name] = f
}

// Names lists the registered program names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resolve builds the RunFunc for spec.Program.
func (r *Registry) resolve(spec core.JobSpec) (RunFunc, error) {
	if r == nil {
		return nil, fmt.Errorf("%w: %q (no registry)", ErrUnknownProgram, spec.Program)
	}
	r.mu.RLock()
	f := r.m[spec.Program]
	r.mu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, spec.Program)
	}
	return f(spec)
}

// RunDirect runs spec straight on rt, bypassing every control-plane layer
// (queue, quotas, persistence) — the reference execution the determinism
// guarantee is stated against: a job admitted through a Manager (or
// wbtuned's HTTP API) must produce a byte-identical result to RunDirect at
// the same seed.
func RunDirect(ctx context.Context, rt *core.Runtime, reg *Registry, spec core.JobSpec) (string, []Round, error) {
	if err := spec.Validate(); err != nil {
		return "", nil, err
	}
	run, err := reg.resolve(spec)
	if err != nil {
		return "", nil, err
	}
	t := rt.NewJob(spec, core.JobEnv{})
	defer t.Close()
	var (
		mu     sync.Mutex
		rounds []Round
	)
	result, err := run(ctx, t, func(r Round) {
		mu.Lock()
		r.Seq = len(rounds) + 1
		rounds = append(rounds, r)
		mu.Unlock()
	})
	return result, rounds, err
}

package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
)

// RuntimeOptions configure a shared multi-tenant Runtime.
type RuntimeOptions struct {
	// MaxPool bounds the number of simultaneously live tuning + sampling
	// processes across every job of the runtime (Algorithm 1). Zero means
	// twice the number of CPUs.
	MaxPool int
	// DisableScheduler turns Algorithm 1 off (every spawn is admitted
	// immediately). Used by the Fig. 10 ablation.
	DisableScheduler bool
	// Obs, when non-nil, receives the runtime's metrics: per-region latency
	// and sample-duration histograms, per-round sample outcome counters,
	// scheduler admission-wait and pool-occupancy metrics, and
	// incremental-aggregation ring metrics. Scheduler and executor metrics
	// are runtime-wide; region-scoped metrics additionally carry a job
	// label, so one Prometheus endpoint covers every job. Hot-path updates
	// are atomic; with Obs nil the runtime records nothing.
	Obs *obs.Registry
	// Fault is the default fault-tolerance policy jobs inherit; a job may
	// override it with JobSpec.Fault. The zero value disables the layer
	// (finish-or-panic semantics, as in the paper).
	Fault FaultPolicy
	// Executor, when non-nil, runs sampling processes somewhere other than
	// this process (e.g. a remote worker fleet shared by every job).
	// Regions the executor declines — cross-validation groups, bodies with
	// Sync barriers, unresolvable bodies — fall back to the in-process
	// path. Its capacity joins the Algorithm 1 admission bound: once at
	// runtime construction, or — when the executor implements
	// ElasticExecutor — continuously, tracking every fleet scale-up and
	// scale-down.
	Executor Executor
}

// Runtime is the shared substrate many tuning jobs run on: one Algorithm 1
// scheduler pool, one Executor (local or remote fleet), one default
// FaultPolicy, and one metrics registry. Create jobs with NewJob; each job
// is an ordinary Tuner restricted to its own seed, feedback state, exposed
// store, and weighted share of the pool. A Runtime is safe for concurrent
// use by all of its jobs.
//
// The single-job constructor New remains as a compatibility wrapper that
// builds a private Runtime; a program using it behaves exactly as before
// the runtime/job split.
type Runtime struct {
	opts    RuntimeOptions
	sched   *sched.Scheduler
	nextJob atomic.Int64
}

// NewRuntime returns a Runtime with the given options.
func NewRuntime(opts RuntimeOptions) *Runtime {
	if opts.MaxPool == 0 {
		opts.MaxPool = 2 * runtime.NumCPU()
	}
	if opts.MaxPool < 1 {
		panic("core: MaxPool must be positive")
	}
	rt := &Runtime{
		opts:  opts,
		sched: sched.New(opts.MaxPool, opts.DisableScheduler),
	}
	if opts.Obs != nil {
		rt.sched.Instrument(opts.Obs)
	}
	if opts.Executor != nil {
		if ew, ok := opts.Executor.(ElasticExecutor); ok {
			// An elastic fleet's slots track Algorithm 1's admission bound
			// continuously: every scale-up widens it, every drain/retirement
			// narrows it, and the watcher's synchronous initial delivery makes
			// the bound exact from the first admission.
			ew.WatchCapacity(func(delta int) {
				if delta > 0 {
					rt.sched.AddCapacity(delta)
				} else if delta < 0 {
					rt.sched.RemoveCapacity(-delta)
				}
			})
		} else if c := opts.Executor.Capacity(); c > 0 {
			// Remote slots join Algorithm 1's admission bound: a dispatched
			// sample occupies a scheduler slot exactly like a local one.
			rt.sched.AddCapacity(c)
		}
	}
	return rt
}

// JobEnv carries what a JobSpec cannot serialise: the process-local
// attachments a host supplies when it creates a job. The zero value attaches
// nothing.
type JobEnv struct {
	// Trace, when non-nil, records the job's runtime events (region, round
	// and sample lifecycle, splits) for debugging and for rendering the
	// tuning tree.
	Trace *Trace
	// CheckpointTo, when non-nil, names the store and label the job's
	// checkpoints go to, and turns on recording like JobSpec.Checkpoint.
	CheckpointTo *CheckpointPolicy
	// Resume, when non-nil, starts the job from a checkpoint: the run
	// re-executes the tuning program from the beginning with the
	// checkpoint's seed, replaying pre-checkpoint rounds from the journal
	// and sampling live from the frontier on. NewJob panics if the
	// checkpoint cannot be resumed here; prefer Runtime.ResumeJob, which
	// reports the failure as a typed error.
	Resume *checkpoint.State
}

// NewJob creates one tuning job on the shared runtime and returns its
// handle. The job draws pool slots from the runtime's scheduler under its
// weighted share, dispatches through the runtime's executor (with its own
// snapshot namespace), and reports region metrics under its job label.
// Call Close on the handle when the job is finished to release per-job
// state held outside this process. The spec is not validated: a direct job
// needs no program name, and an empty Name defaults to "job<N>".
func (rt *Runtime) NewJob(spec JobSpec, env JobEnv) *Tuner {
	rt.mustResume(env.Resume)
	return rt.newJob(spec, env)
}

// ResumeJob creates a job that continues from the checkpoint env.Resume,
// validating that this runtime can host it. It fails with
// ErrResumeCompleted for a final checkpoint, ErrResumeCapacity when the
// scheduler pool is below the checkpoint's MinSlots floor, and
// ErrResumeDuplicate when the same capture was already resumed in this
// process. On success the returned job replays the checkpointed history on
// its next Run and continues live from there — the receiving half of a
// live migration.
func (rt *Runtime) ResumeJob(spec JobSpec, env JobEnv) (*Tuner, error) {
	if env.Resume == nil {
		return nil, errors.New("core: ResumeJob requires a checkpoint state")
	}
	if err := rt.validateResume(env.Resume); err != nil {
		return nil, err
	}
	return rt.newJob(spec, env), nil
}

// mustResume validates a resume state for the panicking constructors.
func (rt *Runtime) mustResume(st *checkpoint.State) {
	if st == nil {
		return
	}
	if err := rt.validateResume(st); err != nil {
		panic("core: cannot resume checkpoint: " + err.Error())
	}
}

// validateResume checks that st can be resumed on this runtime and claims
// its capture ID. The duplicate check runs last so a rejected checkpoint
// stays resumable elsewhere.
func (rt *Runtime) validateResume(st *checkpoint.State) error {
	if st.Complete {
		return ErrResumeCompleted
	}
	if c := rt.sched.Capacity(); c < st.MinSlots {
		return fmt.Errorf("%w: runtime has %d slots, checkpoint requires %d",
			ErrResumeCapacity, c, st.MinSlots)
	}
	resumedMu.Lock()
	defer resumedMu.Unlock()
	if resumedID[st.ID] {
		return ErrResumeDuplicate
	}
	resumedID[st.ID] = true
	return nil
}

// nextJobID namespaces per-job executor state (worker-side snapshot
// caches). It is process-global, not per-runtime: a fleet executor can be
// shared by several Runtimes — that is how a job migrates between them —
// and per-runtime ids would collide in the workers' job namespaces, so
// that one runtime's Close could drop another job's fleet state.
var nextJobID atomic.Uint64

// newJob names a job whose resume state, if any, is already validated and
// assembles it.
func (rt *Runtime) newJob(spec JobSpec, env JobEnv) *Tuner {
	ordinal := rt.nextJob.Add(1)
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("job%d", ordinal)
	}
	return rt.newTuner(spec, env, nextJobID.Add(1))
}

// newTuner assembles a job handle. An empty spec.Name keeps the pre-runtime
// metric label scheme (no job label) for the single-job wrapper New.
func (rt *Runtime) newTuner(spec JobSpec, env JobEnv, id uint64) *Tuner {
	if env.Resume != nil {
		// The checkpoint's seed governs the whole resumed run: replayed
		// rounds were recorded under it, and post-frontier rounds must draw
		// from the same deterministic stream.
		spec.Seed = env.Resume.Seed
	}
	share := spec.Share
	if share == 0 {
		share = 1
	}
	fault := rt.opts.Fault
	if spec.Fault != nil {
		fault = *spec.Fault
	}
	t := &Tuner{
		spec:    spec,
		fault:   fault,
		trace:   env.Trace,
		rt:      rt,
		sched:   rt.sched,
		job:     sched.NewJob(share, spec.MaxParallel),
		jobID:   id,
		exposed: store.NewExposed(),
		obsv:    newTunerObs(rt.opts.Obs, spec.Name),
	}
	if spec.Checkpoint != nil || env.CheckpointTo != nil || env.Resume != nil {
		t.rec = newRecorder(t, spec.Checkpoint, env.CheckpointTo, env.Resume)
	}
	return t
}

// Scheduler exposes the runtime's scheduler statistics.
func (rt *Runtime) Scheduler() sched.Stats { return rt.sched.Stats() }

// InUse reports the number of currently admitted processes across all jobs.
func (rt *Runtime) InUse() int { return rt.sched.InUse() }

// Load exposes the scheduler's cumulative admission-load counters — the
// autoscaler's control signal: an elastic fleet controller diffs successive
// snapshots to derive the mean admission wait per interval and steers the
// fleet toward its queue-latency setpoint.
func (rt *Runtime) Load() sched.LoadStats { return rt.sched.Load() }

// JobEnder is implemented by executors that keep per-job state (snapshot
// namespaces on remote workers); Tuner.Close calls EndJob with the job's
// runtime-unique id so that state is released fleet-wide.
type JobEnder interface {
	EndJob(job uint64)
}

// Runtime returns the runtime this job belongs to.
func (t *Tuner) Runtime() *Runtime { return t.rt }

// JobName returns the job's metric label ("" for a single-job Tuner made
// with New).
func (t *Tuner) JobName() string { return t.spec.Name }

// SlotsInUse reports how many scheduler pool slots the job's processes hold
// right now.
func (t *Tuner) SlotsInUse() int { return t.job.InUse() }

// Close releases the job's cross-runtime state: remote workers drop the
// job's snapshot namespace. It does not interrupt running work — cancel the
// RunContext context for that — and is idempotent. The handle must not be
// used after Close.
func (t *Tuner) Close() {
	if t.closed.Swap(true) {
		return
	}
	if je, ok := t.rt.opts.Executor.(JobEnder); ok {
		je.EndJob(t.jobID)
	}
}

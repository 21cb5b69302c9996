package core

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Metric names the runtime registers when Options.Obs is set. Region-scoped
// metrics carry a region label with the RegionSpec.Name; sample counters
// additionally carry result=done|pruned|failed. Jobs created on a shared
// Runtime prepend job=<JobSpec.Name> to every series below, so one
// Prometheus endpoint covers all co-tenant jobs; single-job Tuners made
// with New stay unlabeled.
const (
	// MetricRegionDuration times whole Region calls (all rounds of
	// auto-tuned sampling included), per region.
	MetricRegionDuration = "wbtuner_region_duration_seconds"
	// MetricSampleDuration times individual sampling-process bodies
	// (drawing, computing, committing, scoring), per region.
	MetricSampleDuration = "wbtuner_sample_duration_seconds"
	// MetricRounds counts sampling rounds, per region.
	MetricRounds = "wbtuner_rounds_total"
	// MetricSamples counts finished sampling processes by outcome, per
	// region (result=done|pruned|failed).
	MetricSamples = "wbtuner_samples_total"
	// MetricSplits counts child tuning processes spawned with Split.
	MetricSplits = "wbtuner_splits_total"
	// MetricRingOccupancy gauges the values buffered in the incremental-
	// aggregation ring (last-writer-wins across concurrent regions).
	MetricRingOccupancy = "wbtuner_ring_occupancy"
	// MetricRingDrainBatch observes the size of every ring drain batch.
	MetricRingDrainBatch = "wbtuner_ring_drain_batch_size"
	// MetricSamplesTimeout counts sampling processes abandoned at a
	// per-sample deadline or region budget, per region.
	MetricSamplesTimeout = "wbtuner_samples_timeout_total"
	// MetricSamplesRetried counts sampling-process re-attempts after
	// retryable failures, per region.
	MetricSamplesRetried = "wbtuner_samples_retried_total"
	// MetricRegionsDegraded counts regions that completed with at least one
	// timed-out or failed sample, per region.
	MetricRegionsDegraded = "wbtuner_regions_degraded_total"
	// MetricCheckpointBytes observes the encoded size of every checkpoint
	// the job writes.
	MetricCheckpointBytes = "wbtuner_checkpoint_bytes"
	// MetricCheckpointDuration times checkpoint captures (quiesce + encode +
	// store write).
	MetricCheckpointDuration = "wbtuner_checkpoint_duration_seconds"
	// MetricCheckpoints counts checkpoints written successfully.
	MetricCheckpoints = "wbtuner_checkpoints_total"
	// MetricCheckpointErrors counts failed auto-checkpoint writes (the run
	// continues; the failure is reported through Tuner.SaveErr).
	MetricCheckpointErrors = "wbtuner_checkpoint_errors_total"
	// MetricResumes counts jobs started from a checkpoint.
	MetricResumes = "wbtuner_resumes_total"
	// MetricReplayedRounds counts sampling rounds satisfied from a resumed
	// job's journal instead of being re-sampled.
	MetricReplayedRounds = "wbtuner_replayed_rounds_total"
)

// tunerObs caches one job's instruments so the hot paths never hit the
// registry lock: job-wide instruments are looked up once at job creation,
// region-scoped ones once per region name. Jobs on a shared Runtime carry a
// job label on every series so one registry distinguishes co-tenants; a
// single-job Tuner made with New has no job label, keeping its exposition
// byte-compatible with the pre-runtime engine. A nil *tunerObs
// (observability off) is valid everywhere.
type tunerObs struct {
	reg       *obs.Registry
	job       string // job label value; "" = unlabeled (single-job compat)
	splits    *obs.Counter
	ringOcc   *obs.Gauge
	ringBatch *obs.Histogram
	ckptBytes *obs.Histogram
	ckptDur   *obs.Histogram
	ckpts     *obs.Counter
	ckptErrs  *obs.Counter
	resumes   *obs.Counter
	replayed  *obs.Counter

	mu      sync.Mutex
	regions map[string]*regionObs
}

// labels prepends the job label (when set) to a series' own labels.
func (o *tunerObs) labels(kv ...string) []string {
	if o.job == "" {
		return kv
	}
	return append([]string{"job", o.job}, kv...)
}

// regionObs holds one region name's instruments.
type regionObs struct {
	duration  *obs.Histogram
	sampleDur *obs.Histogram
	rounds    *obs.Counter
	done      *obs.Counter
	pruned    *obs.Counter
	failed    *obs.Counter
	timeout   *obs.Counter
	retried   *obs.Counter
	degraded  *obs.Counter
}

func newTunerObs(reg *obs.Registry, job string) *tunerObs {
	if reg == nil {
		return nil
	}
	reg.SetHelp(MetricRegionDuration, "wall time of Region calls, all sampling rounds included")
	reg.SetHelp(MetricSampleDuration, "wall time of sampling-process bodies")
	reg.SetHelp(MetricRounds, "sampling rounds started")
	reg.SetHelp(MetricSamples, "sampling processes finished, by outcome")
	reg.SetHelp(MetricSplits, "child tuning processes spawned with Split")
	reg.SetHelp(MetricRingOccupancy, "values buffered in the incremental-aggregation ring")
	reg.SetHelp(MetricRingDrainBatch, "values folded per incremental-aggregation drain")
	reg.SetHelp(MetricSamplesTimeout, "sampling processes abandoned at a deadline or region budget")
	reg.SetHelp(MetricSamplesRetried, "sampling-process re-attempts after retryable failures")
	reg.SetHelp(MetricRegionsDegraded, "regions completed with at least one timed-out or failed sample")
	reg.SetHelp(MetricCheckpointBytes, "encoded size of written checkpoints")
	reg.SetHelp(MetricCheckpointDuration, "wall time of checkpoint captures")
	reg.SetHelp(MetricCheckpoints, "checkpoints written successfully")
	reg.SetHelp(MetricCheckpointErrors, "auto-checkpoint writes that failed")
	reg.SetHelp(MetricResumes, "jobs started from a checkpoint")
	reg.SetHelp(MetricReplayedRounds, "sampling rounds replayed from a resume journal")
	o := &tunerObs{reg: reg, job: job, regions: make(map[string]*regionObs)}
	o.splits = reg.Counter(MetricSplits, o.labels()...)
	o.ringOcc = reg.Gauge(MetricRingOccupancy, o.labels()...)
	o.ringBatch = reg.Histogram(MetricRingDrainBatch, obs.SizeBuckets(), o.labels()...)
	o.ckptBytes = reg.Histogram(MetricCheckpointBytes, obs.ByteBuckets(), o.labels()...)
	o.ckptDur = reg.Histogram(MetricCheckpointDuration, obs.DurationBuckets(), o.labels()...)
	o.ckpts = reg.Counter(MetricCheckpoints, o.labels()...)
	o.ckptErrs = reg.Counter(MetricCheckpointErrors, o.labels()...)
	o.resumes = reg.Counter(MetricResumes, o.labels()...)
	o.replayed = reg.Counter(MetricReplayedRounds, o.labels()...)
	return o
}

// region returns the cached instruments for a region name, creating them on
// first use. Safe on a nil receiver (returns nil).
func (o *tunerObs) region(name string) *regionObs {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if ro, ok := o.regions[name]; ok {
		return ro
	}
	ro := &regionObs{
		duration:  o.reg.Histogram(MetricRegionDuration, obs.DurationBuckets(), o.labels("region", name)...),
		sampleDur: o.reg.Histogram(MetricSampleDuration, obs.DurationBuckets(), o.labels("region", name)...),
		rounds:    o.reg.Counter(MetricRounds, o.labels("region", name)...),
		done:      o.reg.Counter(MetricSamples, o.labels("region", name, "result", "done")...),
		pruned:    o.reg.Counter(MetricSamples, o.labels("region", name, "result", "pruned")...),
		failed:    o.reg.Counter(MetricSamples, o.labels("region", name, "result", "failed")...),
		timeout:   o.reg.Counter(MetricSamplesTimeout, o.labels("region", name)...),
		retried:   o.reg.Counter(MetricSamplesRetried, o.labels("region", name)...),
		degraded:  o.reg.Counter(MetricRegionsDegraded, o.labels("region", name)...),
	}
	o.regions[name] = ro
	return ro
}

// noteSplit counts one Split. Safe on a nil receiver.
func (o *tunerObs) noteSplit() {
	if o != nil {
		o.splits.Inc()
	}
}

// noteCheckpoint records one successful checkpoint write. Safe on nil.
func (o *tunerObs) noteCheckpoint(bytes int, d time.Duration) {
	if o != nil {
		o.ckptBytes.Observe(float64(bytes))
		o.ckptDur.Observe(d.Seconds())
		o.ckpts.Inc()
	}
}

// noteCheckpointError counts one failed auto-checkpoint write. Safe on nil.
func (o *tunerObs) noteCheckpointError() {
	if o != nil {
		o.ckptErrs.Inc()
	}
}

// noteResume counts one resume-from-checkpoint. Safe on nil.
func (o *tunerObs) noteResume() {
	if o != nil {
		o.resumes.Inc()
	}
}

// noteReplayedRound counts one journal-replayed round. Safe on nil.
func (o *tunerObs) noteReplayedRound() {
	if o != nil {
		o.replayed.Inc()
	}
}

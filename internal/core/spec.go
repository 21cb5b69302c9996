package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/checkpoint"
)

// This file defines JobSpec: the declarative, serializable description of
// one tuning job and the single place a job's settings are declared. A
// JobSpec is what a control plane persists, queues, arbitrates, and
// restarts: every field is plain data, and the program is named rather than
// passed as a closure. What a spec cannot carry (a trace, a checkpoint
// store, a resume state) travels beside it in a JobEnv. A spec fully
// determines a job — running the same spec at the same seed produces
// byte-identical results whether it was admitted through a jobs manager or
// handed straight to Runtime.NewJob.

// Job-spec errors. Decode failures wrap ErrSpecVersion or ErrSpecCorrupt
// (mirroring checkpoint.ErrCheckpointVersion/ErrCorrupt); validation
// failures wrap ErrSpecInvalid.
var (
	// ErrSpecVersion reports a job spec written by an unknown (usually
	// newer) codec version.
	ErrSpecVersion = errors.New("core: unsupported job-spec version")
	// ErrSpecCorrupt reports structurally invalid job-spec data: bad magic,
	// truncation, hash mismatch, or malformed body.
	ErrSpecCorrupt = errors.New("core: corrupt job-spec data")
	// ErrSpecInvalid reports a spec that parsed but cannot describe a job
	// (missing name or program, unknown priority class, negative bounds).
	ErrSpecInvalid = errors.New("core: invalid job spec")
)

// SpecVersion is the current job-spec layout version: the JSON shape of
// JobSpec. Bump it on any incompatible change; Validate refuses other
// versions outright rather than guessing.
const SpecVersion = 1

// specFrame frames persisted specs. Frame version 1 carried a hand-rolled
// binary body; version 2 carries the spec's canonical JSON, so a version-1
// file left by an older binary is refused with ErrSpecVersion.
var specFrame = checkpoint.Frame{Magic: "WBJS", Version: 2, ErrVersion: ErrSpecVersion, ErrCorrupt: ErrSpecCorrupt}

// PriorityClass orders jobs in an admission queue: priorities govern who
// enters the running set, while weighted shares (JobSpec.Share) keep
// governing pool slots within it. The zero value is PriorityNormal.
type PriorityClass int8

const (
	// PriorityLow yields to every other class; use it for scavenger work.
	PriorityLow PriorityClass = iota - 1
	// PriorityNormal is the default class.
	PriorityNormal
	// PriorityHigh preempts queued lower classes at every admission
	// boundary (running jobs are never preempted).
	PriorityHigh
)

// String returns the class label used in metrics and JSON.
func (c PriorityClass) String() string {
	switch c {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	}
	return fmt.Sprintf("class(%d)", int8(c))
}

// Valid reports whether c is a known class.
func (c PriorityClass) Valid() bool {
	return c >= PriorityLow && c <= PriorityHigh
}

// ParsePriorityClass parses a class label; "" means PriorityNormal.
func ParsePriorityClass(s string) (PriorityClass, error) {
	switch s {
	case "low":
		return PriorityLow, nil
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	}
	return 0, fmt.Errorf("%w: unknown priority class %q", ErrSpecInvalid, s)
}

// MarshalJSON encodes the class as its label.
func (c PriorityClass) MarshalJSON() ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("%w: priority class %d", ErrSpecInvalid, int8(c))
	}
	return json.Marshal(c.String())
}

// UnmarshalJSON accepts a class label ("low", "normal", "high" or "").
func (c *PriorityClass) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	p, err := ParsePriorityClass(s)
	if err != nil {
		return err
	}
	*c = p
	return nil
}

// CheckpointSpec turns on checkpoint recording for the job: it journals
// its rounds and, when its JobEnv names a store, writes a resumable
// checkpoint every Every completed rounds. The store and label are
// deployment concerns the host supplies (see CheckpointPolicy); the spec
// only carries what must survive a restart to record identically. A
// recorded job supports a single Run.
type CheckpointSpec struct {
	// Every is the auto-checkpoint period in completed rounds. Zero means 1.
	Every int `json:"every,omitempty"`
	// MinSlots is the scheduler-capacity floor recorded in checkpoints; a
	// Runtime with less capacity refuses to resume them. Zero means 2.
	MinSlots int `json:"min_slots,omitempty"`
}

// JobSpec declaratively describes one tuning job: who it belongs to, how it
// is arbitrated (priority class for entering the running set, share and cap
// within it, per-tenant quota identity), and what it runs (a registered
// program name plus string arguments, a seed, a budget, fault and
// checkpoint policies). It is the unit a jobs manager queues, persists, and
// resumes.
type JobSpec struct {
	// SpecVersion is the spec layout version; zero means the current
	// SpecVersion. Decoders refuse versions they do not know.
	SpecVersion int `json:"spec_version,omitempty"`
	// Name uniquely identifies the job within a manager and labels its
	// metrics. It doubles as a persistence label, so it must not contain
	// path separators or "..". Runtime.NewJob names an unnamed job
	// "job<N>", N its creation ordinal on the runtime; two jobs sharing a
	// name on one runtime share metric series.
	Name string `json:"name"`
	// Tenant is the quota and rate-limit identity. Empty means the default
	// (unquota'd) tenant.
	Tenant string `json:"tenant,omitempty"`
	// Class is the admission-queue priority class.
	Class PriorityClass `json:"class,omitempty"`
	// Program names the registered tuning program the job runs. A job made
	// directly on a Runtime runs whatever closure is passed to Run, so
	// Runtime.NewJob does not need it; Validate does.
	Program string `json:"program"`
	// Args parameterize the program (scene names, stage sizes, ...); the
	// program factory parses them. Encoded sorted by key, so a spec's bytes
	// are canonical.
	Args map[string]string `json:"args,omitempty"`
	// Seed makes the job reproducible: a spec plus its seed fully
	// determines the job's results, independently of its co-tenants. The
	// zero seed is a valid seed.
	Seed int64 `json:"seed"`
	// Budget, when positive, bounds the total work units the job may spend
	// (Work calls accumulate against it). Once exceeded, regions stop
	// launching new sampling processes. Work units stand in for the
	// paper's wall-clock tuning budgets.
	Budget float64 `json:"budget,omitempty"`
	// Incremental enables incremental aggregation (Sec. IV-B): sample
	// results for variables with a built-in aggregation strategy are folded
	// into the aggregate as they are committed instead of being retained
	// until the end of the region.
	Incremental bool `json:"incremental,omitempty"`
	// Share is the job's weight in the scheduler's fair admission: under
	// contention, jobs hold pool slots in proportion to their shares
	// (weighted max-min). Zero means 1.
	Share int `json:"share,omitempty"`
	// MaxParallel, when positive, hard-caps how many pool slots the job's
	// processes may hold at once — an upper bound layered on top of the
	// fair share, never a reservation. Zero means no cap.
	MaxParallel int `json:"max_parallel,omitempty"`
	// Fault overrides the runtime's default fault policy when non-nil.
	Fault *FaultPolicy `json:"fault,omitempty"`
	// Checkpoint asks for checkpoint recording when non-nil.
	Checkpoint *CheckpointSpec `json:"checkpoint,omitempty"`
}

// Validate reports whether the spec can describe a job. All failures wrap
// ErrSpecInvalid.
func (s *JobSpec) Validate() error {
	if s.SpecVersion != 0 && s.SpecVersion != SpecVersion {
		return fmt.Errorf("%w: spec version %d (this binary speaks %d)",
			ErrSpecVersion, s.SpecVersion, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("%w: empty name", ErrSpecInvalid)
	}
	if len(s.Name) > 128 || strings.ContainsAny(s.Name, "/\\") || strings.Contains(s.Name, "..") {
		return fmt.Errorf("%w: name %q (must be a plain label: no separators, no \"..\", at most 128 bytes)",
			ErrSpecInvalid, s.Name)
	}
	if s.Program == "" {
		return fmt.Errorf("%w: empty program", ErrSpecInvalid)
	}
	if !s.Class.Valid() {
		return fmt.Errorf("%w: priority class %d", ErrSpecInvalid, int8(s.Class))
	}
	if s.Share < 0 {
		return fmt.Errorf("%w: negative share", ErrSpecInvalid)
	}
	if s.MaxParallel < 0 {
		return fmt.Errorf("%w: negative max_parallel", ErrSpecInvalid)
	}
	if s.Budget < 0 || math.IsNaN(s.Budget) || math.IsInf(s.Budget, 0) {
		return fmt.Errorf("%w: budget %v", ErrSpecInvalid, s.Budget)
	}
	if c := s.Checkpoint; c != nil && (c.Every < 0 || c.MinSlots < 0) {
		return fmt.Errorf("%w: negative checkpoint bound", ErrSpecInvalid)
	}
	return nil
}

// NoteQueuedJobs feeds the scheduler's admission-queue accounting: a jobs
// manager holding specs in front of the running set reports each enqueue
// (+1) and dequeue (-1), flagging high-priority entries, so LoadStats — and
// through it an elastic fleet controller — sees control-plane backlog, not
// just process-level admission waits.
func (rt *Runtime) NoteQueuedJobs(high bool, delta int) {
	rt.sched.NoteQueuedJobs(high, delta)
}

// ParseSpec strictly parses one JSON job spec: unknown fields and trailing
// data are refused with ErrSpecInvalid, then the spec is validated. It is
// the one parser for specs from outside the process, submitted over HTTP or
// read back from a persisted frame.
func ParseSpec(data []byte) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &JobSpec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpecInvalid, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the spec", ErrSpecInvalid)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeSpec encodes a valid spec as its canonical JSON (struct fields in
// declaration order, args sorted by key) inside a checkpoint.Frame, so
// equal specs produce equal bytes.
func EncodeSpec(s *JobSpec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpecInvalid, err)
	}
	return specFrame.Seal(append(specFrame.Start(nil), body...))
}

// DecodeSpec decodes a spec written by EncodeSpec. An unknown frame version
// (including the retired binary encoding) fails with ErrSpecVersion; a bad
// frame, or a body that does not parse, validate, or re-encode to the same
// canonical bytes, fails with ErrSpecCorrupt.
func DecodeSpec(data []byte) (*JobSpec, error) {
	body, err := specFrame.Open(data)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpecCorrupt, err)
	}
	if canon, _ := json.Marshal(s); !bytes.Equal(canon, body) {
		return nil, fmt.Errorf("%w: body is not the spec's canonical encoding", ErrSpecCorrupt)
	}
	return s, nil
}

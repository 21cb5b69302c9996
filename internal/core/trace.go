package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// EventKind classifies a trace event.
type EventKind int

// Trace event kinds, in rough lifecycle order.
const (
	// EvRegionStart marks a Region call entering its tuning role.
	EvRegionStart EventKind = iota
	// EvRoundStart marks one sampling round (auto-tuned sampling runs
	// several rounds per region).
	EvRoundStart
	// EvSampleDone marks a sampling process that committed its results.
	EvSampleDone
	// EvSamplePruned marks a sampling process terminated by Check.
	EvSamplePruned
	// EvSampleFailed marks a sampling process that returned an error or
	// panicked.
	EvSampleFailed
	// EvRegionEnd marks the aggregation point of a region.
	EvRegionEnd
	// EvSplit marks a child tuning process spawned with Split.
	EvSplit
	// EvSampleTimeout marks a sampling process abandoned at its deadline or
	// its region's budget (FaultPolicy) — the distinguished timeout outcome.
	EvSampleTimeout
	// EvSampleRetry marks one re-attempt of a sampling process after a
	// retryable failure; Round carries the attempt number just finished.
	EvSampleRetry
	// EvRegionDegraded marks a region that completed with at least one
	// timed-out or failed sample; N carries the shortfall count.
	EvRegionDegraded
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvRegionStart:
		return "region-start"
	case EvRoundStart:
		return "round-start"
	case EvSampleDone:
		return "sample-done"
	case EvSamplePruned:
		return "sample-pruned"
	case EvSampleFailed:
		return "sample-failed"
	case EvRegionEnd:
		return "region-end"
	case EvSplit:
		return "split"
	case EvSampleTimeout:
		return "sample-timeout"
	case EvSampleRetry:
		return "sample-retry"
	case EvRegionDegraded:
		return "region-degraded"
	default:
		return "unknown"
	}
}

// Event is one observation of the runtime: which tuning process did what in
// which region. Sample is the sample index within its round (-1 when not
// applicable); N carries the round size for EvRoundStart. At is the
// collection time in Unix nanoseconds, stamped by the runtime; events
// constructed with a non-zero At keep it.
type Event struct {
	Kind   EventKind
	At     int64
	Region string
	PID    int64
	Round  int
	Sample int
	N      int
	Score  float64
	Err    string
}

// traceErr condenses an error to its first line for trace events. Full
// errors (panic stacks in particular) carry goroutine IDs and addresses that
// differ run to run; keeping only the stable first line is what makes a
// seeded trace byte-identical on replay. The complete error remains
// available on the region's Result.
func traceErr(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Trace collects runtime events when installed via JobEnv.Trace (or
// Options.Trace for New). It is safe for concurrent use; collection order
// is the runtime's completion order, not sample index order.
type Trace struct {
	mu     sync.Mutex
	events []Event
	clock  func() int64 // nil means wall clock
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// SetClock installs a deterministic clock used to stamp events (e.g. a
// logical counter for byte-identical replay exports); nil restores the wall
// clock. The clock is called under the trace lock, so a plain closure over a
// counter is race-free and stamps events in collection order.
func (tr *Trace) SetClock(fn func() int64) {
	tr.mu.Lock()
	tr.clock = fn
	tr.mu.Unlock()
}

func (tr *Trace) add(e Event) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	// Stamp under the lock so collection order is also timestamp order.
	if e.At == 0 {
		if tr.clock != nil {
			e.At = tr.clock()
		} else {
			e.At = time.Now().UnixNano()
		}
	}
	tr.events = append(tr.events, e)
	tr.mu.Unlock()
}

// Events returns a copy of everything recorded so far. A nil trace has no
// events.
func (tr *Trace) Events() []Event {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Event(nil), tr.events...)
}

// jsonlEvent is the JSONL wire form of an Event: kind as its string name,
// at in Unix nanoseconds, score only where it means something (sample-done
// events with a finite score).
type jsonlEvent struct {
	At     int64    `json:"at"`
	Kind   string   `json:"kind"`
	Region string   `json:"region,omitempty"`
	PID    int64    `json:"pid"`
	Round  int      `json:"round"`
	Sample int      `json:"sample"`
	N      int      `json:"n,omitempty"`
	Score  *float64 `json:"score,omitempty"`
	Err    string   `json:"err,omitempty"`
}

// WriteJSONL writes every recorded event as one JSON object per line, in
// collection order — the machine-readable export of the trace. A nil trace
// writes nothing.
func (tr *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w) // Encode appends exactly one newline per event
	for _, e := range tr.Events() {
		je := jsonlEvent{
			At:     e.At,
			Kind:   e.Kind.String(),
			Region: e.Region,
			PID:    e.PID,
			Round:  e.Round,
			Sample: e.Sample,
			N:      e.N,
			Err:    e.Err,
		}
		if e.Kind == EvSampleDone && !math.IsNaN(e.Score) && !math.IsInf(e.Score, 0) {
			score := e.Score
			je.Score = &score
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}

// regionSummary aggregates a region's events for rendering.
type regionSummary struct {
	name     string
	rounds   int
	samples  int
	pruned   int
	failed   int
	timeouts int
	first    int // arrival order for stable rendering
}

// Tree renders the tuning structure the trace observed — the textual
// equivalent of the paper's Fig. 6 tuning-model diagram: one line per
// region (aggregated over all tuning processes that ran it) plus the split
// count.
func (tr *Trace) Tree() string {
	events := tr.Events()

	regions := map[string]*regionSummary{}
	order := 0
	splits := 0
	for _, e := range events {
		if e.Kind == EvSplit {
			splits++
			continue
		}
		if e.Region == "" {
			continue
		}
		rs, ok := regions[e.Region]
		if !ok {
			rs = &regionSummary{name: e.Region, first: order}
			order++
			regions[e.Region] = rs
		}
		switch e.Kind {
		case EvRoundStart:
			rs.rounds++
		case EvSampleDone:
			rs.samples++
		case EvSamplePruned:
			rs.pruned++
		case EvSampleFailed:
			rs.failed++
		case EvSampleTimeout:
			rs.timeouts++
		}
	}
	list := make([]*regionSummary, 0, len(regions))
	for _, rs := range regions {
		list = append(list, rs)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].first < list[j].first })

	var b strings.Builder
	fmt.Fprintf(&b, "tuning tree (%d splits)\n", splits)
	for _, rs := range list {
		fmt.Fprintf(&b, "  region %-14s rounds=%d samples=%d pruned=%d failed=%d timeout=%d\n",
			rs.name, rs.rounds, rs.samples, rs.pruned, rs.failed, rs.timeouts)
	}
	return b.String()
}

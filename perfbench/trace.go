package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// (a round, a pass, a job) share op; parent is the id of the span that
// caused this one, 0 for an operation's root span. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Partial marks a span whose children were not recorded (a round
	// outside the traced subset): it counts towards coverage but not
	// towards self time.
	Partial bool `json:"partial,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span's name is prefixed with ("core.Region" is in
// layer core).
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// off: every method is a no-op, so untraced runs pay one nil check per
// wrapped call.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the current time on the tracer's clock.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// id allocates a span id. Parents take theirs when they start, so children
// that end first can name them.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span that started at start and ends now.
func (t *tracer) add(id, parent, op int64, name string, start int64) {
	t.put(span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
}

// addPartial records a finished span whose children were not traced.
func (t *tracer) addPartial(id, parent, op int64, name string, start int64) {
	t.put(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, Partial: true})
}

func (t *tracer) put(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// merge sorts intervals and joins overlapping ones.
func merge(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, iv := range s {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// selfIntervals returns, for each span, the parts of its interval that none
// of its children cover: when the span's own layer was doing the work.
func selfIntervals(spans []span) map[int64][]interval {
	kids := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int64][]interval, len(spans))
	for _, s := range spans {
		cur := s.Start
		var gaps []interval
		for _, k := range merge(kids[s.ID]) {
			if k.hi <= cur || k.lo >= s.End {
				continue
			}
			if k.lo > cur {
				gaps = append(gaps, interval{cur, k.lo})
			}
			cur = max(cur, k.hi)
		}
		if cur < s.End {
			gaps = append(gaps, interval{cur, s.End})
		}
		self[s.ID] = gaps
	}
	return self
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer string
	spans int
	self  time.Duration // summed over the layer's spans
	share float64       // wall time the layer was doing its own work ÷ operations' wall time
}

// layerTable attributes the operations' wall time to layers. A layer's
// share is the union of its spans' self intervals over the union of the
// root spans, so concurrent calls into one layer count once; layers that
// work at the same time (a worker body beside another sample's dispatch)
// may together exceed 1.
func layerTable(spans []span) []layerRow {
	selfIv := selfIntervals(spans)
	var roots []interval
	byLayer := map[string][]interval{}
	rows := map[string]*layerRow{}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range spans {
		if s.Partial {
			continue
		}
		if s.Parent == 0 {
			roots = append(roots, interval{s.Start, s.End})
			lo, hi = min(lo, s.Start), max(hi, s.End)
		}
		r := rows[s.layer()]
		if r == nil {
			r = &layerRow{layer: s.layer()}
			rows[s.layer()] = r
		}
		r.spans++
		for _, iv := range selfIv[s.ID] {
			r.self += time.Duration(iv.hi - iv.lo)
		}
		byLayer[s.layer()] = append(byLayer[s.layer()], selfIv[s.ID]...)
	}
	rootTime := coverage(lo, hi, roots)
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		if rootTime > 0 {
			r.share = float64(coverage(lo, hi, byLayer[name])) / float64(rootTime)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].share > out[j].share })
	return out
}

// rootCoverage is the share of [lo, hi) covered by root spans.
func rootCoverage(spans []span, lo, hi int64) float64 {
	var roots []interval
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, interval{s.Start, s.End})
		}
	}
	if hi <= lo {
		return 0
	}
	return float64(coverage(lo, hi, roots)) / float64(hi-lo)
}

func formatLayerTable(rows []layerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %12s %8s\n", "layer", "spans", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10d %12.3f %8.4f\n", r.layer, r.spans, float64(r.self)/1e6, r.share)
	}
	return b.String()
}

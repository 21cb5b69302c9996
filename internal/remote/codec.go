package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/strategy"
)

// protocolVersion is negotiated in the hello frame; any other version
// rejects the connection rather than misparsing frames. Version 4 carries
// job-namespaced snapshots and rounds, mux chunk frames (large messages
// interleave as mChunk streams, see mux.go) and delta snapshot shipping
// (mSnapDelta/mSnapNack, see snapdelta.go).
const protocolVersion = 4

// Message type bytes (first payload byte of every frame).
const (
	mHello     byte = 1  // worker -> dispatcher: name, slots, version
	mSnapshot  byte = 2  // dispatcher -> worker: content-hashed exposed-store snapshot
	mRound     byte = 3  // dispatcher -> worker: one sampling round's recipe
	mTask      byte = 4  // dispatcher -> worker: run one sampling-process attempt
	mResults   byte = 5  // worker -> dispatcher: a batch of finished samples
	mEndRound  byte = 6  // dispatcher -> worker: forget a round
	mDrain     byte = 7  // worker -> dispatcher: draining, assign nothing new
	mBye       byte = 8  // worker -> dispatcher: all in-flight flushed, closing
	mEndJob    byte = 9  // dispatcher -> worker: a job closed, drop its snapshots
	mChunk     byte = 10 // either direction: one chunk of an interleaved message
	mSnapDelta byte = 11 // dispatcher -> worker (v4): key-level snapshot delta against a shipped base
	mSnapNack  byte = 12 // worker -> dispatcher (v4): typed refusal of a delta; answer is a full ship
)

// snapKey names one cached snapshot: job-scoped so co-tenant jobs of a
// shared Runtime never evict each other's @load state, content-hashed so
// re-shipment is cheap to detect.
type snapKey struct{ job, hash uint64 }

var errCodec = errors.New("remote: malformed message")

// wbuf is an append-only encode buffer.
type wbuf struct{ b []byte }

func (w *wbuf) byte(v byte)  { w.b = append(w.b, v) }
func (w *wbuf) uv(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *wbuf) iv(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) f64(v float64) {
	w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(v))
}
func (w *wbuf) str(s string) {
	w.uv(uint64(len(s)))
	w.b = append(w.b, s...)
}

// rbuf is a bounds-checked decode cursor with a sticky error, so decoders
// read fields unconditionally and check once at the end. Every length read
// from the wire is validated against the remaining bytes before use, which
// keeps a hostile length from turning into a huge allocation.
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = errCodec
	}
}

func (r *rbuf) byte() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *rbuf) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *rbuf) iv() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

// skip advances the cursor n bytes without reading them, bounds-checked like
// every other accessor. Used by skipValue to walk encoded values by length.
func (r *rbuf) skip(n uint64) {
	if r.err != nil || uint64(len(r.b)) < n {
		r.fail()
		return
	}
	r.b = r.b[n:]
}

func (r *rbuf) str() string {
	n := r.uv()
	if r.err != nil || uint64(len(r.b)) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// strIn reads a string through d's intern table when d is non-nil: repeated
// names (parameter and commit keys recur every sample) resolve to one shared
// string with no allocation on the hit path — the map lookup on string(b)
// bytes compiles to an allocation-free probe.
func (r *rbuf) strIn(d *decoder) string {
	n := r.uv()
	if r.err != nil || uint64(len(r.b)) < n {
		r.fail()
		return ""
	}
	b := r.b[:n]
	r.b = r.b[n:]
	if n == 0 {
		return ""
	}
	if d != nil {
		if s, ok := d.names[string(b)]; ok {
			return s
		}
		s := string(b)
		if len(d.names) < internTableCap {
			d.names[s] = s
		}
		return s
	}
	return string(b)
}

// internTableCap bounds a decoder's intern table so a peer emitting unique
// names cannot grow it without bound.
const internTableCap = 1024

// decoder is per-connection decode scratch: the result batch slice and the
// name intern table are reused across frames, so steady-state result
// decoding allocates only what escapes into the tuner's stores (the decoded
// values and per-result key slices), never the batch plumbing. Not safe for
// concurrent use; each read loop owns one.
type decoder struct {
	names map[string]string
	batch []resultMsg
}

func (d *decoder) init() {
	if d.names == nil {
		d.names = make(map[string]string, 32)
	}
}

// count reads a collection length and validates it against a per-element
// minimum encoded size, rejecting lengths the payload cannot possibly hold.
func (r *rbuf) count(minElem int) int {
	n := r.uv()
	if r.err != nil || n > uint64(len(r.b)/minElem)+1 {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errCodec, len(r.b))
	}
	return nil
}

// --- value codec -----------------------------------------------------------
//
// Commit and @expose values cross the wire with a one-byte type tag. The
// native tags cover every value the built-in aggregation strategies and the
// bench drivers' numeric commits use; anything else becomes a handle into
// the dispatcher-provided ValueTable (same-process loopback workers resolve
// the handle in shared memory; a true remote worker without a shared table
// fails the sample with a descriptive, non-retryable error).

const (
	vNil byte = iota
	vBool
	vInt
	vFloat64
	vString
	vBytes
	vInts
	vFloats
	vFloatss
	vHandle
)

var errNoValueTable = errors.New("remote: opaque value requires a shared value table (same-process workers only)")

func appendValue(w *wbuf, v any, vt *ValueTable) error {
	switch x := v.(type) {
	case nil:
		w.byte(vNil)
	case bool:
		w.byte(vBool)
		if x {
			w.byte(1)
		} else {
			w.byte(0)
		}
	case int:
		w.byte(vInt)
		w.iv(int64(x))
	case float64:
		w.byte(vFloat64)
		w.f64(x)
	case string:
		w.byte(vString)
		w.str(x)
	case []byte:
		w.byte(vBytes)
		w.uv(uint64(len(x)))
		w.b = append(w.b, x...)
	case []int:
		w.byte(vInts)
		w.uv(uint64(len(x)))
		for _, e := range x {
			w.iv(int64(e))
		}
	case []float64:
		w.byte(vFloats)
		w.uv(uint64(len(x)))
		for _, e := range x {
			w.f64(e)
		}
	case [][]float64:
		w.byte(vFloatss)
		w.uv(uint64(len(x)))
		for _, row := range x {
			w.uv(uint64(len(row)))
			for _, e := range row {
				w.f64(e)
			}
		}
	default:
		if vt == nil {
			return fmt.Errorf("%w (value type %T)", errNoValueTable, v)
		}
		w.byte(vHandle)
		w.uv(vt.put(v))
	}
	return nil
}

func readValue(r *rbuf, vt *ValueTable) (any, error) {
	switch tag := r.byte(); tag {
	case vNil:
		return nil, r.err
	case vBool:
		return r.byte() != 0, r.err
	case vInt:
		return int(r.iv()), r.err
	case vFloat64:
		return r.f64(), r.err
	case vString:
		return r.str(), r.err
	case vBytes:
		n := r.count(1)
		if r.err != nil {
			return nil, r.err
		}
		out := make([]byte, n)
		copy(out, r.b[:n])
		r.b = r.b[n:]
		return out, nil
	case vInts:
		n := r.count(1)
		out := make([]int, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			out = append(out, int(r.iv()))
		}
		return out, r.err
	case vFloats:
		n := r.count(8)
		out := make([]float64, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			out = append(out, r.f64())
		}
		return out, r.err
	case vFloatss:
		n := r.count(1)
		out := make([][]float64, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			m := r.count(8)
			row := make([]float64, 0, m)
			for j := 0; j < m && r.err == nil; j++ {
				row = append(row, r.f64())
			}
			out = append(out, row)
		}
		return out, r.err
	case vHandle:
		id := r.uv()
		if r.err != nil {
			return nil, r.err
		}
		if vt == nil {
			return nil, errNoValueTable
		}
		v, ok := vt.get(id)
		if !ok {
			return nil, fmt.Errorf("%w: unknown value handle %d", errCodec, id)
		}
		return v, nil
	default:
		r.fail()
		return nil, r.err
	}
}

// --- feedback codec --------------------------------------------------------

// appendFeedback encodes the feedback history with each map's keys sorted,
// so equal feedback always serializes to equal bytes.
func appendFeedback(w *wbuf, fb []strategy.Feedback) {
	w.uv(uint64(len(fb)))
	for _, f := range fb {
		w.f64(f.Score)
		names := make([]string, 0, len(f.Params))
		for k := range f.Params {
			names = append(names, k)
		}
		sort.Strings(names)
		w.uv(uint64(len(names)))
		for _, k := range names {
			w.str(k)
			w.f64(f.Params[k])
		}
	}
}

func readFeedback(r *rbuf) []strategy.Feedback {
	n := r.count(9)
	if n == 0 {
		return nil
	}
	out := make([]strategy.Feedback, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		f := strategy.Feedback{Score: r.f64()}
		m := r.count(9)
		f.Params = make(map[string]float64, m)
		for j := 0; j < m && r.err == nil; j++ {
			k := r.str()
			f.Params[k] = r.f64()
		}
		out = append(out, f)
	}
	return out
}

// --- messages --------------------------------------------------------------

type helloMsg struct {
	Version uint64
	Name    string
	Slots   int
}

func encodeHello(h helloMsg) []byte {
	w := &wbuf{}
	w.byte(mHello)
	w.uv(h.Version)
	w.str(h.Name)
	w.uv(uint64(h.Slots))
	return w.b
}

func decodeHello(b []byte) (helloMsg, error) {
	r := &rbuf{b: b}
	h := helloMsg{Version: r.uv(), Name: r.str(), Slots: int(r.uv())}
	return h, r.done()
}

type roundMsg struct {
	ID       uint64
	Job      uint64 // runtime-unique tuning-job id; namespaces snapshots
	Region   string
	Dyn      uint64 // dynamic-registry key; 0 means resolve Region by name
	Seed     int64
	Round    int
	N        int
	SnapHash uint64
	Feedback []strategy.Feedback
}

func encodeRound(m roundMsg) []byte {
	w := &wbuf{}
	w.byte(mRound)
	w.uv(m.ID)
	w.uv(m.Job)
	w.str(m.Region)
	w.uv(m.Dyn)
	w.iv(m.Seed)
	w.uv(uint64(m.Round))
	w.uv(uint64(m.N))
	w.u64(m.SnapHash)
	appendFeedback(w, m.Feedback)
	return w.b
}

func decodeRound(b []byte) (roundMsg, error) {
	r := &rbuf{b: b}
	m := roundMsg{
		ID:     r.uv(),
		Job:    r.uv(),
		Region: r.str(),
		Dyn:    r.uv(),
		Seed:   r.iv(),
		Round:  int(r.uv()),
		N:      int(r.uv()),
	}
	m.SnapHash = r.u64()
	m.Feedback = readFeedback(r)
	return m, r.done()
}

type taskMsg struct {
	ID      uint64
	Round   uint64
	Group   int
	Attempt int
}

// appendTask encodes a task message into w (the steady-state dispatch path
// encodes straight into a pooled frame buffer).
func appendTask(w *wbuf, m taskMsg) {
	w.byte(mTask)
	w.uv(m.ID)
	w.uv(m.Round)
	w.uv(uint64(m.Group))
	w.uv(uint64(m.Attempt))
}

func encodeTask(m taskMsg) []byte {
	w := &wbuf{}
	appendTask(w, m)
	return w.b
}

func decodeTask(b []byte) (taskMsg, error) {
	r := &rbuf{b: b}
	m := taskMsg{ID: r.uv(), Round: r.uv(), Group: int(r.uv()), Attempt: int(r.uv())}
	return m, r.done()
}

type resultMsg struct {
	ID  uint64
	Res core.ExecResult
}

const (
	frPruned byte = 1 << iota
	frPanicked
	frScored
	frUnsupported
	frRetryable
)

func appendExecResult(w *wbuf, res core.ExecResult, vt *ValueTable) error {
	var flags byte
	if res.Pruned {
		flags |= frPruned
	}
	if res.Panicked {
		flags |= frPanicked
	}
	if res.Scored {
		flags |= frScored
	}
	if res.Unsupported {
		flags |= frUnsupported
	}
	if res.Retryable {
		flags |= frRetryable
	}
	w.byte(flags)
	w.f64(res.Score)
	w.iv(res.WorkMilli)
	w.str(res.Err)
	w.uv(uint64(len(res.Params)))
	for _, p := range res.Params {
		w.str(p.Name)
		w.f64(p.Value)
	}
	w.uv(uint64(len(res.Commits)))
	for _, c := range res.Commits {
		w.str(c.Name)
		if err := appendValue(w, c.Value, vt); err != nil {
			return err
		}
	}
	return nil
}

func readExecResult(r *rbuf, vt *ValueTable, d *decoder) (core.ExecResult, error) {
	flags := r.byte()
	res := core.ExecResult{
		Pruned:      flags&frPruned != 0,
		Panicked:    flags&frPanicked != 0,
		Scored:      flags&frScored != 0,
		Unsupported: flags&frUnsupported != 0,
		Retryable:   flags&frRetryable != 0,
		Score:       r.f64(),
		WorkMilli:   r.iv(),
		Err:         r.str(),
	}
	np := r.count(9)
	if np > 0 {
		res.Params = make([]core.ParamKV, 0, np)
	}
	for i := 0; i < np && r.err == nil; i++ {
		res.Params = append(res.Params, core.ParamKV{Name: r.strIn(d), Value: r.f64()})
	}
	nc := r.count(2)
	if nc > 0 {
		res.Commits = make([]core.CommitKV, 0, nc)
	}
	for i := 0; i < nc && r.err == nil; i++ {
		name := r.strIn(d)
		v, err := readValue(r, vt)
		if err != nil {
			return res, err
		}
		res.Commits = append(res.Commits, core.CommitKV{Name: name, Value: v})
	}
	return res, r.err
}

// appendResults encodes a result batch into w. On an unserializable value it
// returns the encode error with w in an undefined state; callers degrade per
// sample (see wconn.flush).
func appendResults(w *wbuf, batch []resultMsg, vt *ValueTable) error {
	w.byte(mResults)
	w.uv(uint64(len(batch)))
	for _, m := range batch {
		w.uv(m.ID)
		if err := appendExecResult(w, m.Res, vt); err != nil {
			return err
		}
	}
	return nil
}

func encodeResults(batch []resultMsg, vt *ValueTable) ([]byte, error) {
	w := &wbuf{}
	if err := appendResults(w, batch, vt); err != nil {
		return nil, err
	}
	return w.b, nil
}

// decodeResults decodes a result batch, reusing d's batch slice and intern
// table when d is non-nil. The returned slice is then valid only until the
// next decodeResults call on the same decoder; the resultMsg values it holds
// may be copied out freely.
func decodeResults(b []byte, vt *ValueTable, d *decoder) ([]resultMsg, error) {
	r := &rbuf{b: b}
	n := r.count(2)
	var out []resultMsg
	if d != nil {
		d.init()
		out = d.batch[:0]
	} else {
		out = make([]resultMsg, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		id := r.uv()
		res, err := readExecResult(r, vt, d)
		if err != nil {
			return nil, err
		}
		out = append(out, resultMsg{ID: id, Res: res})
	}
	if d != nil {
		d.batch = out
	}
	return out, r.done()
}

func encodeEndRound(id uint64) []byte {
	w := &wbuf{}
	w.byte(mEndRound)
	w.uv(id)
	return w.b
}

func decodeEndRound(b []byte) (uint64, error) {
	r := &rbuf{b: b}
	id := r.uv()
	return id, r.done()
}

func encodeEndJob(job uint64) []byte {
	w := &wbuf{}
	w.byte(mEndJob)
	w.uv(job)
	return w.b
}

func decodeEndJob(b []byte) (uint64, error) {
	r := &rbuf{b: b}
	job := r.uv()
	return job, r.done()
}

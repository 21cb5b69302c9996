package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
)

// Checkpoints travel in a Frame (see frame.go) with this magic; maxBody
// caps every frame's body length.
const (
	magic         = "WBCK"
	maxBody       = 256 << 20
	maxValueDepth = 16
)

// fnv1a is the 64-bit FNV-1a hash of b (same function the remote snapshot
// path uses for content addressing).
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// encoder appends to a pooled buffer; the first value-codec failure
// sticks.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) u8(v uint8)  { e.b = append(e.b, v) }
func (e *encoder) uv(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) iv(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) u64(v uint64) {
	e.b = binary.BigEndian.AppendUint64(e.b, v)
}
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) str(s string) {
	e.uv(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *encoder) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// value appends one dynamically typed value. Types outside the native tag
// table fall back to gob (concrete type must be registered via
// RegisterValue on both sides); a gob failure sticks in e.err.
func (e *encoder) value(v any, depth int) {
	if depth > maxValueDepth {
		e.fail(fmt.Errorf("checkpoint: value nesting exceeds %d", maxValueDepth))
		return
	}
	switch x := v.(type) {
	case nil:
		e.u8(0)
	case float64:
		e.u8(1)
		e.f64(x)
	case int:
		e.u8(2)
		e.iv(int64(x))
	case string:
		e.u8(3)
		e.str(x)
	case bool:
		e.u8(4)
		e.flag(x)
	case []float64:
		e.u8(5)
		e.uv(uint64(len(x)))
		for _, f := range x {
			e.f64(f)
		}
	case []byte:
		e.u8(6)
		e.uv(uint64(len(x)))
		e.b = append(e.b, x...)
	case int64:
		e.u8(7)
		e.iv(x)
	case [][]float64:
		e.u8(8)
		e.uv(uint64(len(x)))
		for _, row := range x {
			e.uv(uint64(len(row)))
			for _, f := range row {
				e.f64(f)
			}
		}
	case []any:
		e.u8(9)
		e.uv(uint64(len(x)))
		for _, el := range x {
			e.value(el, depth+1)
		}
	default:
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(&v); err != nil {
			e.fail(fmt.Errorf("checkpoint: encode %T: %w", v, err))
			return
		}
		e.u8(10)
		e.uv(uint64(gb.Len()))
		e.b = append(e.b, gb.Bytes()...)
	}
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) kvs(kvs []KV) {
	e.uv(uint64(len(kvs)))
	for _, kv := range kvs {
		e.str(kv.Name)
		e.value(kv.V, 0)
	}
}

// marshal encodes st into a full framed message backed by a pooled buffer.
// The caller owns the result and must freeBuf it.
func marshal(st *State) ([]byte, error) {
	e := &encoder{b: stateFrame.Start(allocBuf(4 << 10))}

	e.b = append(e.b, st.ID[:]...)
	e.iv(st.Seed)
	e.uv(uint64(st.MinSlots))
	e.flag(st.Complete)
	c := &st.Counters
	for _, v := range []int64{
		c.Regions, c.Rounds, c.Samples, c.Pruned,
		c.Panics, c.Timeouts, c.Retried, c.Degraded,
		c.Splits, c.PeakRetained,
		c.WorkMilli, c.WorkSerialMilli, c.WorkParaMilli,
	} {
		e.iv(v)
	}

	paths := make([]string, 0, len(st.Frontier))
	for p := range st.Frontier {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	e.uv(uint64(len(paths)))
	for _, p := range paths {
		e.str(p)
		e.uv(st.Frontier[p])
	}

	e.uv(uint64(len(st.Events)))
	for _, ev := range st.Events {
		e.str(ev.Path)
		e.uv(ev.Seq)
		e.u8(ev.Kind)
		e.uv(ev.Arg)
		e.str(ev.Name)
	}

	e.uv(uint64(len(st.Rounds)))
	for i := range st.Rounds {
		r := &st.Rounds[i]
		e.str(r.Path)
		e.uv(r.Seq)
		e.str(r.Region)
		e.iv(int64(r.Round))
		e.iv(int64(r.N))
		e.iv(int64(r.K))
		e.u64(r.FBHash)
		e.kvs(r.Aggregated)
		e.uv(uint64(len(r.Groups)))
		for gi := range r.Groups {
			g := &r.Groups[gi]
			e.uv(uint64(len(g.Params)))
			for _, p := range g.Params {
				e.str(p.Name)
				e.f64(p.V)
			}
			e.flag(g.HaveParams)
			e.f64(g.ScoreSum)
			e.iv(int64(g.ScoreCnt))
			e.flag(g.Pruned)
			e.u8(g.ErrKind)
			e.str(g.ErrMsg)
			e.kvs(g.Commits)
		}
	}

	// Exposed entries whose value the codec cannot represent are skipped
	// rather than failing the checkpoint: the tuning program re-executes
	// its Expose calls during replay anyway, so the snapshot is a warm
	// start, not the source of truth. Journal values above, by contrast,
	// fail the write — replay cannot reconstruct a round without them.
	countAt := len(e.b)
	e.uv(uint64(len(st.Exposed))) // worst case; re-encoded below if entries drop
	kept := 0
	entriesAt := len(e.b)
	for _, en := range st.Exposed {
		mark := len(e.b)
		probe := &encoder{b: e.b}
		probe.str(en.Scope)
		probe.str(en.Name)
		probe.value(en.V, 0)
		if probe.err != nil {
			e.b = e.b[:mark]
			continue
		}
		e.b = probe.b
		kept++
	}
	if kept != len(st.Exposed) {
		// Rewrite the count in place. Uvarint lengths can differ, so
		// re-append the kept entries after the corrected count.
		entries := append([]byte(nil), e.b[entriesAt:]...)
		e.b = e.b[:countAt]
		e.uv(uint64(kept))
		e.b = append(e.b, entries...)
	}

	if e.err != nil {
		freeBuf(e.b)
		return nil, e.err
	}
	b, err := stateFrame.Seal(e.b)
	if err != nil {
		freeBuf(e.b)
	}
	return b, err
}

// EncodeBytes encodes st into a freshly allocated byte slice.
func EncodeBytes(st *State) ([]byte, error) {
	b, err := marshal(st)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), b...)
	freeBuf(b)
	return out, nil
}

// Encode writes st's framed encoding to w.
func Encode(w io.Writer, st *State) error {
	b, err := marshal(st)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	freeBuf(b)
	return err
}

// decoder consumes a byte slice with bounds-checked reads; the first
// failure sticks and subsequent reads return zero values.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.remaining() < n {
		d.fail(corruptf("truncated at offset %d (need %d bytes)", d.off, n))
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(corruptf("bad uvarint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) iv() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(corruptf("bad varint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := d.count(1)
	return string(d.take(n))
}

func (d *decoder) flag() bool { return d.u8() != 0 }

// count reads a uvarint element count and bounds it against the remaining
// input, assuming each element occupies at least elemMin bytes — a corrupt
// count can then never drive a larger allocation than the input itself.
func (d *decoder) count(elemMin int) int {
	v := d.uv()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.remaining()/elemMin) {
		d.fail(corruptf("count %d exceeds remaining input at offset %d", v, d.off))
		return 0
	}
	return int(v)
}

func (d *decoder) value(depth int) any {
	if d.err != nil {
		return nil
	}
	if depth > maxValueDepth {
		d.fail(corruptf("value nesting exceeds %d", maxValueDepth))
		return nil
	}
	switch tag := d.u8(); tag {
	case 0:
		return nil
	case 1:
		return d.f64()
	case 2:
		return int(d.iv())
	case 3:
		return d.str()
	case 4:
		return d.flag()
	case 5:
		n := d.count(8)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = d.f64()
		}
		return vs
	case 6:
		n := d.count(1)
		return append([]byte(nil), d.take(n)...)
	case 7:
		return d.iv()
	case 8:
		n := d.count(1)
		rows := make([][]float64, n)
		for i := range rows {
			m := d.count(8)
			rows[i] = make([]float64, m)
			for j := range rows[i] {
				rows[i][j] = d.f64()
			}
		}
		return rows
	case 9:
		n := d.count(1)
		vs := make([]any, n)
		for i := range vs {
			vs[i] = d.value(depth + 1)
		}
		return vs
	case 10:
		n := d.count(1)
		gb := d.take(n)
		if d.err != nil {
			return nil
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(gb)).Decode(&v); err != nil {
			d.fail(corruptf("gob value: %v", err))
			return nil
		}
		return v
	default:
		d.fail(corruptf("unknown value tag %d at offset %d", tag, d.off-1))
		return nil
	}
}

func (d *decoder) kvs() []KV {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i].Name = d.str()
		kvs[i].V = d.value(0)
	}
	return kvs
}

// DecodeBytes parses one framed checkpoint from data. It returns
// ErrCheckpointVersion (wrapped) for an unknown codec version and
// ErrCorrupt (wrapped) for structurally invalid input; it never panics on
// malformed data.
func DecodeBytes(data []byte) (*State, error) {
	body, err := stateFrame.Open(data)
	if err != nil {
		return nil, err
	}
	return decodeBody(body)
}

func decodeBody(body []byte) (*State, error) {
	d := &decoder{b: body}
	st := &State{}
	copy(st.ID[:], d.take(16))
	st.Seed = d.iv()
	st.MinSlots = int(d.uv())
	st.Complete = d.flag()
	c := &st.Counters
	for _, p := range []*int64{
		&c.Regions, &c.Rounds, &c.Samples, &c.Pruned,
		&c.Panics, &c.Timeouts, &c.Retried, &c.Degraded,
		&c.Splits, &c.PeakRetained,
		&c.WorkMilli, &c.WorkSerialMilli, &c.WorkParaMilli,
	} {
		*p = d.iv()
	}

	nf := d.count(2)
	if nf > 0 {
		st.Frontier = make(map[string]uint64, nf)
	}
	for i := 0; i < nf; i++ {
		p := d.str()
		v := d.uv()
		if d.err != nil {
			break
		}
		st.Frontier[p] = v
	}

	ne := d.count(4)
	if ne > 0 {
		st.Events = make([]Event, ne)
	}
	for i := range st.Events {
		ev := &st.Events[i]
		ev.Path = d.str()
		ev.Seq = d.uv()
		ev.Kind = d.u8()
		ev.Arg = d.uv()
		ev.Name = d.str()
	}

	nr := d.count(8)
	if nr > 0 {
		st.Rounds = make([]Round, nr)
	}
	for i := range st.Rounds {
		r := &st.Rounds[i]
		r.Path = d.str()
		r.Seq = d.uv()
		r.Region = d.str()
		r.Round = int(d.iv())
		r.N = int(d.iv())
		r.K = int(d.iv())
		r.FBHash = d.u64()
		r.Aggregated = d.kvs()
		ng := d.count(8)
		if d.err != nil {
			break
		}
		if ng > 0 {
			r.Groups = make([]Group, ng)
		}
		for gi := range r.Groups {
			g := &r.Groups[gi]
			np := d.count(9)
			if d.err != nil {
				break
			}
			if np > 0 {
				g.Params = make([]Param, np)
			}
			for pi := range g.Params {
				g.Params[pi].Name = d.str()
				g.Params[pi].V = d.f64()
			}
			g.HaveParams = d.flag()
			g.ScoreSum = d.f64()
			g.ScoreCnt = int(d.iv())
			g.Pruned = d.flag()
			g.ErrKind = d.u8()
			g.ErrMsg = d.str()
			g.Commits = d.kvs()
		}
	}

	nx := d.count(3)
	if nx > 0 {
		st.Exposed = make([]Entry, nx)
	}
	for i := range st.Exposed {
		en := &st.Exposed[i]
		en.Scope = d.str()
		en.Name = d.str()
		en.V = d.value(0)
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, corruptf("%d trailing body bytes", len(d.b)-d.off)
	}
	return st, nil
}

// Decode reads one framed checkpoint from r, consuming exactly its bytes.
// The frame is staged through a pooled buffer that is returned to the pool
// on every path.
func Decode(r io.Reader) (*State, error) {
	hdr := make([]byte, stateFrame.headerLen())
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("checkpoint: read header: %w", err)
	}
	_, blen, err := stateFrame.header(hdr)
	if err != nil {
		return nil, err
	}
	buf := append(allocBuf(len(hdr)+blen+8), hdr...)[:len(hdr)+blen+8]
	defer freeBuf(buf)
	if _, err := io.ReadFull(r, buf[len(hdr):]); err != nil {
		return nil, fmt.Errorf("checkpoint: read body: %w", err)
	}
	body, err := stateFrame.Open(buf)
	if err != nil {
		return nil, err
	}
	return decodeBody(body)
}

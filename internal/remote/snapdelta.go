package remote

// Protocol v4 delta snapshot shipping. A snapshot's canonical encoding is a
// byte string (see snapshot.go); once a job has shipped one, every later
// version's canonical encoding is *defined* as applySnapDelta(prev, delta) —
// a deterministic byte-level patch both sides run — rather than a fresh
// encodeSnapshot. That definition matters because opaque values encode as
// ValueTable handles whose ids are assigned at encode time: re-encoding the
// same store twice yields different bytes, so only patching keeps the
// dispatcher's and every worker's copy byte-identical (and therefore
// hash-identical) across versions.
//
// An mSnapDelta frame carries {job, baseHash, newHash, changed entries with
// raw value bytes, deleted keys}. The worker locates the encoded base by
// (job, baseHash), patches, and verifies the FNV-1a hash of the result
// against newHash before decoding — a mismatch or a missing base produces a
// typed mSnapNack refusal, which the dispatcher answers with a full ship.
// Divergence is impossible to ignore; it is never silent.

// Nack causes: why a worker refused an mSnapDelta.
const (
	nackBaseMissing  byte = 1 // the (job, baseHash) encoding is not cached
	nackHashMismatch byte = 2 // the patch result did not hash to newHash
)

// skipValue advances r past one encoded value without decoding it and
// returns the raw bytes it occupied (aliasing r's buffer), or nil with r's
// sticky error set on malformed input. This is how delta construction and
// patching move opaque values between encodings verbatim — the bytes are
// the identity; they are never re-encoded.
func skipValue(r *rbuf) []byte {
	start := r.b
	switch tag := r.byte(); tag {
	case vNil:
	case vBool:
		r.skip(1)
	case vInt:
		r.iv()
	case vFloat64:
		r.skip(8)
	case vString, vBytes:
		r.skip(r.uv())
	case vInts:
		n := r.count(1)
		for i := 0; i < n && r.err == nil; i++ {
			r.iv()
		}
	case vFloats:
		n := r.count(8)
		r.skip(uint64(n) * 8)
	case vFloatss:
		n := r.count(1)
		for i := 0; i < n && r.err == nil; i++ {
			m := r.count(8)
			r.skip(uint64(m) * 8)
		}
	case vHandle:
		r.uv()
	default:
		r.fail()
	}
	if r.err != nil {
		return nil
	}
	return start[:len(start)-len(r.b)]
}

// encEntry is one entry of an encoded snapshot in structural form: its
// scoped name plus the raw value bytes inside the encoding (tag included).
type encEntry struct {
	scope, name string
	val         []byte
}

// delKey names one deleted entry in a delta.
type delKey struct{ scope, name string }

// cmpEntryKey orders entries by (scope, name), the canonical snapshot order.
func cmpEntryKey(aScope, aName, bScope, bName string) int {
	if aScope != bScope {
		if aScope < bScope {
			return -1
		}
		return 1
	}
	if aName != bName {
		if aName < bName {
			return -1
		}
		return 1
	}
	return 0
}

// parseSnapEntries splits encoded snapshot bytes into per-entry triples
// without decoding values — the structural view delta construction and
// patching work on. The returned entries alias b.
func parseSnapEntries(b []byte) ([]encEntry, error) {
	r := &rbuf{b: b}
	nsym := r.count(1)
	names := make([]string, 0, nsym)
	for i := 0; i < nsym && r.err == nil; i++ {
		names = append(names, r.str())
	}
	nent := r.count(3)
	ents := make([]encEntry, 0, nent)
	for i := 0; i < nent && r.err == nil; i++ {
		scopeID := r.uv()
		nameID := r.uv()
		if r.err != nil || scopeID >= uint64(len(names)) || nameID >= uint64(len(names)) {
			r.fail()
			break
		}
		val := skipValue(r)
		if r.err != nil {
			break
		}
		ents = append(ents, encEntry{scope: names[scopeID], name: names[nameID], val: val})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return ents, nil
}

// snapDelta is one decoded mSnapDelta frame. Changed entries carry raw value
// bytes sliced from (and aliasing) the frame payload, in (scope, name) order.
type snapDelta struct {
	Job      uint64
	BaseHash uint64
	NewHash  uint64
	Changed  []encEntry
	Deleted  []delKey
}

// encodeSnapDelta serializes a delta frame. Changed and deleted must already
// be sorted by (scope, name); scope and name strings are interned into a
// frame-local symbol table in first-appearance order.
func encodeSnapDelta(d *snapDelta) []byte {
	ids := make(map[string]uint64, 2*(len(d.Changed)+len(d.Deleted)))
	var names []string
	intern := func(s string) uint64 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := uint64(len(names))
		ids[s] = id
		names = append(names, s)
		return id
	}
	for _, en := range d.Changed {
		intern(en.scope)
		intern(en.name)
	}
	for _, k := range d.Deleted {
		intern(k.scope)
		intern(k.name)
	}
	w := &wbuf{}
	w.byte(mSnapDelta)
	w.uv(d.Job)
	w.u64(d.BaseHash)
	w.u64(d.NewHash)
	w.uv(uint64(len(names)))
	for _, s := range names {
		w.str(s)
	}
	w.uv(uint64(len(d.Changed)))
	for _, en := range d.Changed {
		w.uv(ids[en.scope])
		w.uv(ids[en.name])
		w.b = append(w.b, en.val...)
	}
	w.uv(uint64(len(d.Deleted)))
	for _, k := range d.Deleted {
		w.uv(ids[k.scope])
		w.uv(ids[k.name])
	}
	return w.b
}

// decodeSnapDelta parses an mSnapDelta payload (type byte stripped). Changed
// value bytes alias b, so callers must finish patching before recycling the
// frame buffer.
func decodeSnapDelta(b []byte) (snapDelta, error) {
	r := &rbuf{b: b}
	d := snapDelta{Job: r.uv(), BaseHash: r.u64(), NewHash: r.u64()}
	nsym := r.count(1)
	names := make([]string, 0, nsym)
	for i := 0; i < nsym && r.err == nil; i++ {
		names = append(names, r.str())
	}
	sym := func(id uint64) string {
		if r.err != nil || id >= uint64(len(names)) {
			r.fail()
			return ""
		}
		return names[id]
	}
	nch := r.count(3)
	d.Changed = make([]encEntry, 0, nch)
	for i := 0; i < nch && r.err == nil; i++ {
		scope := sym(r.uv())
		name := sym(r.uv())
		val := skipValue(r)
		if r.err != nil {
			break
		}
		d.Changed = append(d.Changed, encEntry{scope: scope, name: name, val: val})
	}
	ndel := r.count(2)
	d.Deleted = make([]delKey, 0, ndel)
	for i := 0; i < ndel && r.err == nil; i++ {
		k := delKey{scope: sym(r.uv()), name: sym(r.uv())}
		if r.err != nil {
			break
		}
		d.Deleted = append(d.Deleted, k)
	}
	return d, r.done()
}

// applySnapDelta patches base (an encoded snapshot) with d and returns the
// new canonical encoding in a pool-allocated buffer. The patch is a pure
// function of (base, d): the dispatcher and every worker produce identical
// bytes, which is what makes the post-patch hash check meaningful. The
// caller owns the returned buffer; it does NOT alias base or d.
func applySnapDelta(base []byte, d *snapDelta) ([]byte, error) {
	ents, err := parseSnapEntries(base)
	if err != nil {
		return nil, err
	}
	dels := make(map[delKey]struct{}, len(d.Deleted))
	for _, k := range d.Deleted {
		dels[k] = struct{}{}
	}
	merged := make([]encEntry, 0, len(ents)+len(d.Changed))
	i, j := 0, 0
	for i < len(ents) || j < len(d.Changed) {
		takeChanged := false
		switch {
		case i >= len(ents):
			takeChanged = true
		case j >= len(d.Changed):
		default:
			switch cmpEntryKey(d.Changed[j].scope, d.Changed[j].name, ents[i].scope, ents[i].name) {
			case -1:
				takeChanged = true
			case 0: // same key: the changed entry replaces the base entry
				merged = append(merged, d.Changed[j])
				i++
				j++
				continue
			}
		}
		if takeChanged {
			merged = append(merged, d.Changed[j])
			j++
			continue
		}
		en := ents[i]
		i++
		if _, gone := dels[delKey{scope: en.scope, name: en.name}]; gone {
			continue
		}
		merged = append(merged, en)
	}

	ids := make(map[string]uint64, 16)
	var names []string
	intern := func(s string) uint64 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := uint64(len(names))
		ids[s] = id
		names = append(names, s)
		return id
	}
	est := len(base) + 64
	for _, en := range d.Changed {
		est += len(en.val) + len(en.scope) + len(en.name) + 16
	}
	w := &wbuf{b: allocBuf(est)[:0]}
	for _, en := range merged {
		intern(en.scope)
		intern(en.name)
	}
	w.uv(uint64(len(names)))
	for _, s := range names {
		w.str(s)
	}
	w.uv(uint64(len(merged)))
	for _, en := range merged {
		w.uv(ids[en.scope])
		w.uv(ids[en.name])
		w.b = append(w.b, en.val...)
	}
	return w.b, nil
}

// snapNack is one decoded mSnapNack frame.
type snapNack struct {
	Job      uint64
	BaseHash uint64
	NewHash  uint64
	Cause    byte
}

func encodeSnapNack(n snapNack) []byte {
	w := &wbuf{}
	w.byte(mSnapNack)
	w.uv(n.Job)
	w.u64(n.BaseHash)
	w.u64(n.NewHash)
	w.byte(n.Cause)
	return w.b
}

func decodeSnapNack(b []byte) (snapNack, error) {
	r := &rbuf{b: b}
	n := snapNack{Job: r.uv(), BaseHash: r.u64(), NewHash: r.u64(), Cause: r.byte()}
	return n, r.done()
}

package remote

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote/transport"
	"repro/internal/store"
)

// helloTimeout bounds how long AddConn waits for a worker's hello frame.
const helloTimeout = 10 * time.Second

// ExecutorOptions configure a NetExecutor.
type ExecutorOptions struct {
	// Registry names the regions workers can run. A region whose name is
	// registered ships as a name; with Dynamic set, unregistered regions
	// ship under a per-round dynamic key instead. Required.
	Registry *Registry
	// Dynamic publishes unregistered region bodies in the shared Registry
	// under per-round keys. Only workers sharing this process's Registry
	// pointer (loopback workers) can resolve them; leave false for a fleet
	// of separate worker processes, where unregistered regions should fall
	// back to the local path.
	Dynamic bool
	// Values is the shared opaque-value table for same-process workers.
	Values *ValueTable
	// Obs, when non-nil, receives the per-worker dispatch metrics and the
	// fleet-level gauges (fleet size, affinity hits/misses).
	Obs *obs.Registry
	// AffinityWait bounds how long a sample whose job snapshot is already
	// cached on a busy worker waits for one of that worker's slots before
	// falling back to work stealing on any free worker. Zero means
	// DefaultAffinityWait; negative disables affinity waiting (pure FIFO
	// stealing, the pre-elastic behaviour).
	AffinityWait time.Duration
	// SnapCacheBytes bounds each job's dispatcher-side encoded-snapshot
	// cache: retained snapshot versions beyond the newest are evicted oldest
	// first once their bytes exceed the cap (counted by
	// wbtuner_snapcache_evictions_total), trading delta-ship coverage for
	// memory. Zero means DefaultSnapCacheBytes; negative disables the bound.
	SnapCacheBytes int
}

// DefaultSnapCacheBytes is the default per-job bound on retained encoded
// snapshot versions (the delta-ship base set).
const DefaultSnapCacheBytes = 64 << 20

// DefaultAffinityWait is the default bound on how long a sample holds out
// for a snapshot-affine worker before stealing lands it anywhere. It is
// deliberately a fraction of a typical sample's service time: affinity is
// worth a short queue, never a stall.
const DefaultAffinityWait = 2 * time.Millisecond

// NetExecutor implements core.Executor over a fleet of worker connections.
//
// Scheduling is pull-based work stealing: Execute appends the sample to one
// shared FIFO queue, and every worker connection runs a pump goroutine that
// claims the queue head whenever the worker has a free slot — so a fast or
// idle worker naturally takes work a slow one has not claimed, with no
// per-worker queues to balance. A worker that dies (read error, protocol
// violation) fails its in-flight samples with a retryable error; core's
// FaultPolicy retry machinery re-executes them, the re-dispatch lands on a
// surviving worker, and the seeded sampler makes the replay draw exactly
// what the lost attempt drew. When no workers remain, Execute reports
// ErrExecUnsupported and the tuner finishes the run in-process.
type NetExecutor struct {
	opts    ExecutorOptions
	affWait time.Duration
	snapCap int // per-job byte bound on retained snapshot versions
	fm      *fleetMetrics

	mu        sync.Mutex
	cond      *sync.Cond
	workers   []*dworker
	queue     []*call
	nextCall  uint64
	nextRound uint64
	nextName  int // monotone suffix for deduping worker names across churn
	rr        int // fast-path rotation cursor, spreads light load
	closed    bool
	capLs     []func(delta int) // capacity watchers (scheduler bounds)

	snapMu sync.Mutex
	snaps  map[uint64]*jobSnap // job id -> encoded-snapshot cache
}

// snapVersion is one retained encoded snapshot version of a job. data is
// immutable once stored and may be referenced by queued bulk items, so
// eviction only drops the reference (the GC reclaims it; it is never
// recycled into the buffer pool). delta, when non-nil, is the encoded
// mSnapDelta frame patching this version's bytes into the job's current
// version; ratioFail records that the delta existed but exceeded the ratio
// bound, so ships from this base fall back to full with cause=ratio.
type snapVersion struct {
	ver       uint64
	hash      uint64
	data      []byte
	delta     []byte
	ratioFail bool
}

// maxSnapVersions bounds how many snapshot versions a jobSnap retains,
// independent of the byte cap. The oldest retained version is the store's
// tombstone-compaction horizon (every deleted-key record must survive until
// no retained base predates it), so with small snapshots the byte cap alone
// would let a long-running service job accumulate versions — and therefore
// tombstones — without bound. Workers more than maxSnapVersions rounds
// stale take a full re-ship, which they'd likely need anyway.
const maxSnapVersions = 8

// jobSnap caches one job's encoded exposed-store snapshot history. The
// current version is encoded (or patched) once per store version; older
// versions are retained, oldest-first in lru and bounded by the byte cap
// and maxSnapVersions, as delta-ship bases — a worker last sent any
// retained version receives a key-level patch instead of the full encoding.
// Per-job entries keep co-tenant jobs on a shared Runtime from thrashing
// each other's cache between interleaved rounds.
type jobSnap struct {
	store  *store.Exposed
	cur    *snapVersion
	byHash map[uint64]*snapVersion // every retained version, cur included
	lru    []uint64                // retained hashes, oldest first; cur last
	bytes  int                     // sum of len(data) over byHash
}

// NewExecutor returns an executor with no workers; add them with AddConn or
// Dial before handing it to core.Options.Executor.
func NewExecutor(opts ExecutorOptions) *NetExecutor {
	if opts.Registry == nil {
		panic("remote: ExecutorOptions.Registry is required")
	}
	ex := &NetExecutor{opts: opts, snaps: make(map[uint64]*jobSnap)}
	switch {
	case opts.AffinityWait > 0:
		ex.affWait = opts.AffinityWait
	case opts.AffinityWait == 0:
		ex.affWait = DefaultAffinityWait
	}
	switch {
	case opts.SnapCacheBytes > 0:
		ex.snapCap = opts.SnapCacheBytes
	case opts.SnapCacheBytes == 0:
		ex.snapCap = DefaultSnapCacheBytes
	default:
		ex.snapCap = int(^uint(0) >> 1) // unbounded
	}
	if opts.Obs != nil {
		ex.fm = newFleetMetrics(opts.Obs)
	}
	ex.cond = sync.NewCond(&ex.mu)
	return ex
}

// WatchCapacity registers f to observe every fleet capacity transition as a
// signed slot delta: worker joins are positive, retirement/drain/death
// negative. The current counted capacity is delivered synchronously before
// registration returns — under the same lock that serialises transitions, so
// a worker dying concurrently can never be observed twice or not at all.
// core.NewRuntime uses this (via the core.ElasticExecutor interface) to keep
// the Algorithm 1 sampling bound tracking an elastic fleet; several Runtimes
// sharing one executor each register their own watcher.
func (ex *NetExecutor) WatchCapacity(f func(delta int)) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.capLs = append(ex.capLs, f)
	n := 0
	for _, w := range ex.workers {
		if w.counted {
			n += w.slots
		}
	}
	if n != 0 {
		f(n)
	}
}

// countLocked admits w's slots into the fleet capacity. Callers hold ex.mu.
func (ex *NetExecutor) countLocked(w *dworker) {
	if w.counted {
		return
	}
	w.counted = true
	for _, f := range ex.capLs {
		f(w.slots)
	}
	if ex.fm != nil {
		ex.fm.fleetSize.Add(1)
	}
}

// uncountLocked retires w's slots from the fleet capacity exactly once,
// however many of explicit retirement, a worker-announced drain, and
// connection death race each other: the counted flag is the single source of
// truth, so a worker dying mid-drain is never double-subtracted. Callers
// hold ex.mu.
func (ex *NetExecutor) uncountLocked(w *dworker) {
	if !w.counted {
		return
	}
	w.counted = false
	for _, f := range ex.capLs {
		f(-w.slots)
	}
	if ex.fm != nil {
		ex.fm.fleetSize.Add(-1)
	}
}

// dworker is the dispatcher's view of one worker connection.
type dworker struct {
	ex         *NetExecutor
	c          net.Conn
	wire       *wire
	name       string
	slots      int
	chunkBound int // per-connection demux stream bound; 0 = protocol default
	m          *workerMetrics

	// shipMu orders one worker's control frames: under it, a round frame
	// always hits the connection before the tasks that reference it, even
	// when the pump and a fast-path Execute ship concurrently. Snapshots are
	// exempt — they ride the bulk lane and tasks park worker-side until
	// theirs lands.
	shipMu     sync.Mutex
	sentSnaps  map[snapKey]bool
	sentRounds map[uint64]bool

	// bulkq feeds the bulk-lane goroutine, which streams snapshot ships as
	// interleavable chunk frames so a multi-megabyte @load state never
	// head-of-line blocks other jobs' rounds and tasks on this connection.
	bulkq chan bulkItem
	stop  chan struct{} // closed by fail; releases the bulk lane

	// Guarded by ex.mu.
	inflight  map[uint64]*call
	dead      bool
	draining  bool
	counted   bool                 // slots currently in the fleet capacity
	haveSnaps map[snapKey]struct{} // dispatcher-side affinity index
}

// bulkItem is one snapshot ship queued on the bulk lane: a full snapshot
// (data) or, when delta is non-nil, a complete encoded mSnapDelta frame
// patching a base the worker already holds into version hash.
type bulkItem struct {
	job, hash uint64
	data      []byte
	delta     []byte
}

// call is one Execute invocation in flight.
type call struct {
	id      uint64
	r       *roundState
	group   int
	attempt int
	done    chan callOutcome // buffered 1

	enq  time.Time
	sent time.Time

	// Affinity routing: sk identifies the snapshot this sample needs; a call
	// queued while only busy workers hold sk carries a deadline after which
	// any worker may steal it. Guarded by ex.mu.
	sk          snapKey
	affDeadline time.Time
	affTimer    *time.Timer

	// Guarded by ex.mu.
	worker    *dworker
	delivered bool
	abandoned bool
}

type callOutcome struct {
	res core.ExecResult
	err error
}

// roundState is the executor's BeginRound handle.
type roundState struct {
	id       uint64
	job      uint64
	dyn      uint64
	payload  []byte // encoded round frame
	snapHash uint64
	snapData []byte
}

// Dial connects to a worker's TCP listen address and adds it to the fleet.
func (ex *NetExecutor) Dial(addr string) error {
	return ex.DialTransport(transport.TCP(), addr)
}

// DialTransport connects to a worker through t (TCP, unix socket, TLS, or an
// in-memory pipe) and adds it to the fleet; the worker's dispatch metrics
// carry t's name as the transport label.
func (ex *NetExecutor) DialTransport(t transport.Transport, addr string) error {
	c, err := t.Dial(addr)
	if err != nil {
		return err
	}
	var tn transport.Tuning
	if td, ok := t.(transport.Tuned); ok {
		tn = td.Tuning()
	}
	if _, err := ex.addConn(c, t.Name(), tn); err != nil {
		c.Close()
		return err
	}
	return nil
}

// AddConn adds one worker connection to the fleet. It performs the hello
// handshake synchronously (bounded by helloTimeout) and then starts the
// connection's pump and reader. Connections established out-of-band label
// their metrics transport="pipe" (the loopback case); use DialTransport to
// carry a real transport name.
func (ex *NetExecutor) AddConn(conn net.Conn) error {
	_, err := ex.addConn(conn, "pipe", transport.Tuning{})
	return err
}

// addConn performs the hello handshake and registers the worker, returning
// the (possibly deduplicated) name it joined under — the handle RemoveConn
// retires it by.
func (ex *NetExecutor) addConn(conn net.Conn, transportName string, tn transport.Tuning) (string, error) {
	conn.SetDeadline(time.Now().Add(helloTimeout))
	payload, err := readFrame(conn, nil)
	defer freeBuf(payload)
	if err != nil {
		return "", fmt.Errorf("remote: worker hello: %w", err)
	}
	if len(payload) == 0 || payload[0] != mHello {
		return "", fmt.Errorf("%w: expected hello frame", errCodec)
	}
	hello, err := decodeHello(payload[1:])
	if err != nil {
		return "", err
	}
	if hello.Version != protocolVersion {
		return "", fmt.Errorf("remote: protocol version mismatch: worker %d, dispatcher %d",
			hello.Version, protocolVersion)
	}
	if hello.Slots < 1 {
		return "", fmt.Errorf("%w: worker advertises no slots", errCodec)
	}
	conn.SetDeadline(time.Time{})

	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return "", fmt.Errorf("remote: executor closed")
	}
	name := hello.Name
	for _, w := range ex.workers {
		if w.name == name {
			// Dedup with a monotone counter, not the slice length: dead
			// workers are reaped from the slice, and a reused suffix would
			// collide in the per-worker metric labels across churn.
			ex.nextName++
			name = fmt.Sprintf("%s-%d", hello.Name, ex.nextName)
		}
	}
	bulkCap := 8
	if tn.MaxInflightChunks > 0 {
		bulkCap = tn.MaxInflightChunks
	}
	m := newWorkerMetrics(ex.opts.Obs, name, transportName)
	cc := &countingConn{Conn: conn, m: m}
	w := &dworker{
		ex:         ex,
		c:          cc,
		wire:       newWire(cc),
		name:       name,
		slots:      hello.Slots,
		chunkBound: tn.MaxInflightChunks,
		m:          m,
		sentSnaps:  make(map[snapKey]bool),
		sentRounds: make(map[uint64]bool),
		bulkq:      make(chan bulkItem, bulkCap),
		stop:       make(chan struct{}),
		inflight:   make(map[uint64]*call),
		haveSnaps:  make(map[snapKey]struct{}),
	}
	ex.workers = append(ex.workers, w)
	ex.countLocked(w)
	ex.cond.Broadcast()
	ex.mu.Unlock()

	go w.pump()
	go w.bulkLoop()
	go w.readLoop()
	ex.warmWorker(w)
	return name, nil
}

// warmWorker pre-ships every cached job snapshot to a just-added worker over
// the bulk lane (pre-priming), so a scale-up joins the fleet
// warm: its first affinity-routed samples park briefly on an in-flight ship
// instead of paying a full snapshot round-trip at dispatch time.
func (ex *NetExecutor) warmWorker(w *dworker) {
	ex.snapMu.Lock()
	items := make([]bulkItem, 0, len(ex.snaps))
	for job, s := range ex.snaps {
		if s.cur != nil {
			items = append(items, bulkItem{job: job, hash: s.cur.hash, data: s.cur.data})
		}
	}
	ex.snapMu.Unlock()
	for _, it := range items {
		sk := snapKey{job: it.job, hash: it.hash}
		w.shipMu.Lock()
		if !w.sentSnaps[sk] {
			if err := w.queueSnapshotLocked(it.job, it.hash, it.data); err != nil {
				w.shipMu.Unlock()
				return
			}
		}
		w.shipMu.Unlock()
		ex.mu.Lock()
		if !w.dead {
			w.haveSnaps[sk] = struct{}{}
		}
		ex.mu.Unlock()
	}
}

// queueSnapshotLocked queues the (job, hash) snapshot on w's bulk lane,
// shipping a delta against a base this worker already holds when the delta
// rules allow it and the full encoding otherwise. Callers hold w.shipMu and
// have checked sentSnaps.
func (w *dworker) queueSnapshotLocked(job, hash uint64, data []byte) error {
	sk := snapKey{job: job, hash: hash}
	it := w.ex.snapItem(w, sk, data)
	w.sentSnaps[sk] = true
	select {
	case w.bulkq <- it:
		return nil
	case <-w.stop:
		delete(w.sentSnaps, sk)
		return errWorkerStopped
	}
}

// snapItem decides how (job, hash) reaches w: an mSnapDelta against the
// newest retained base already queued to this worker when the cached delta
// passed the ratio bound; the full encoding otherwise, counting why the delta path was unavailable. Callers hold
// w.shipMu (which guards w.sentSnaps); snapMu nests inside it.
func (ex *NetExecutor) snapItem(w *dworker, sk snapKey, data []byte) bulkItem {
	full := bulkItem{job: sk.job, hash: sk.hash, data: data}
	ex.snapMu.Lock()
	defer ex.snapMu.Unlock()
	s := ex.snaps[sk.job]
	if s == nil || s.cur == nil || s.cur.hash != sk.hash {
		// Not the version the delta cache targets (a stale round's data or a
		// dropped cache): nothing to patch from, and nothing to count — no
		// delta ever existed for this ship.
		ex.countSnapBytes(false, len(data))
		return full
	}
	var best *snapVersion
	hadBase, hadRatio := false, false
	for osk := range w.sentSnaps {
		if osk.job != sk.job || osk.hash == sk.hash {
			continue
		}
		hadBase = true
		b := s.byHash[osk.hash]
		if b == nil || b == s.cur {
			continue
		}
		if b.ratioFail {
			hadRatio = true
			continue
		}
		if b.delta != nil && (best == nil || b.ver > best.ver) {
			best = b
		}
	}
	switch {
	case !hadBase:
		// Cold worker for this job: the first ship is necessarily full.
	case best != nil:
		ex.countSnapBytes(true, len(best.delta))
		return bulkItem{job: sk.job, hash: sk.hash, delta: best.delta}
	case hadRatio:
		ex.countFallback(func(m *fleetMetrics) *obs.Counter { return m.fallbackRatio })
	default:
		// Every base this worker holds was evicted from the dispatcher cache.
		ex.countFallback(func(m *fleetMetrics) *obs.Counter { return m.fallbackBase })
	}
	ex.countSnapBytes(false, len(data))
	return full
}

func (ex *NetExecutor) countSnapBytes(delta bool, n int) {
	if ex.fm == nil {
		return
	}
	if delta {
		ex.fm.snapBytesDelta.Add(int64(n))
	} else {
		ex.fm.snapBytesFull.Add(int64(n))
	}
}

func (ex *NetExecutor) countFallback(pick func(*fleetMetrics) *obs.Counter) {
	if ex.fm == nil {
		return
	}
	pick(ex.fm).Inc()
}

// liveLocked counts workers accepting new samples. Callers hold ex.mu.
func (ex *NetExecutor) liveLocked() int {
	n := 0
	for _, w := range ex.workers {
		if !w.dead && !w.draining {
			n++
		}
	}
	return n
}

// Capacity sums the slots of live workers; the tuner adds it to the
// Algorithm 1 sampling bound.
func (ex *NetExecutor) Capacity() int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	n := 0
	for _, w := range ex.workers {
		if !w.dead && !w.draining {
			n += w.slots
		}
	}
	return n
}

// Workers lists the names of live (accepting) workers, in join order.
func (ex *NetExecutor) Workers() []string {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	names := make([]string, 0, len(ex.workers))
	for _, w := range ex.workers {
		if !w.dead && !w.draining {
			names = append(names, w.name)
		}
	}
	return names
}

// errWorkerRetired is the graceful-retirement cause handed to fail once a
// drained worker's last in-flight sample lands; like a worker's own goodbye,
// it does not count as a failure in the metrics.
var errWorkerRetired = errors.New("remote: worker retired by autoscaler")

// RemoveConn gracefully retires the named worker: it stops receiving new
// samples immediately (capacity watchers observe the drop, shrinking the
// Algorithm 1 bound), in-flight samples finish and deliver normally, and the
// connection closes once the last one lands — retirement never drops a
// round. It blocks until the drain completes or ctx expires; on expiry the
// connection is torn down anyway and the remaining in-flight samples bounce
// through the retry machinery onto surviving workers.
func (ex *NetExecutor) RemoveConn(ctx context.Context, name string) error {
	ex.mu.Lock()
	var w *dworker
	for _, cand := range ex.workers {
		if cand.name == name && !cand.dead && !cand.draining {
			w = cand
			break
		}
	}
	if w == nil {
		ex.mu.Unlock()
		return fmt.Errorf("remote: no live worker %q", name)
	}
	w.draining = true
	ex.uncountLocked(w)
	ex.cond.Broadcast() // release the pump; it exits on the draining flag
	stopWake := context.AfterFunc(ctx, func() {
		ex.mu.Lock()
		ex.cond.Broadcast()
		ex.mu.Unlock()
	})
	for len(w.inflight) > 0 && !w.dead && ctx.Err() == nil {
		ex.cond.Wait() // deliver and fail both broadcast
	}
	expired := ctx.Err()
	ex.mu.Unlock()
	stopWake()
	ex.fail(w, errWorkerRetired)
	return expired
}

// snapshotFor encodes (or reuses) the snapshot of a job's exposed store,
// cached per job by the store's version counter so unchanged @load state is
// encoded once per version, not once per round — even while other jobs'
// rounds interleave on the same executor.
//
// A job's first snapshot is a fresh encodeSnapshot; every later version's
// canonical encoding is *defined* as applySnapDelta(previous, delta) — see
// snapdelta.go for why re-encoding would break hash stability. The per-base
// delta payloads workers receive are computed here, eagerly: BeginRound runs
// while the job's store is quiescent, so one ChangedSince scan covers every
// retained base and ship time never races a concurrent Set.
func (ex *NetExecutor) snapshotFor(job uint64, e *store.Exposed) ([]byte, uint64, error) {
	if e == nil || e.Len() == 0 {
		return nil, 0, nil
	}
	ex.snapMu.Lock()
	defer ex.snapMu.Unlock()
	ver := e.Version()
	s := ex.snaps[job]
	if s != nil && s.store == e && s.cur.ver == ver {
		return s.cur.data, s.cur.hash, nil
	}
	if s == nil || s.store != e {
		// First snapshot for this job (or the job re-bound to a fresh store,
		// e.g. after resume): full encode, fresh history.
		data, hash, err := encodeSnapshot(e, ex.opts.Values)
		if err != nil {
			return nil, 0, err
		}
		if err := checkSnapshotSize(len(data)); err != nil {
			return nil, 0, err
		}
		cur := &snapVersion{ver: ver, hash: hash, data: data}
		ex.snaps[job] = &jobSnap{
			store:  e,
			cur:    cur,
			byHash: map[uint64]*snapVersion{hash: cur},
			lru:    []uint64{hash},
			bytes:  len(data),
		}
		return data, hash, nil
	}
	data, hash, err := ex.advanceSnapLocked(job, e, s, ver)
	if err != nil {
		return nil, 0, err
	}
	return data, hash, nil
}

// checkSnapshotSize enforces the wire cap at encode time: an exposed store
// too large to ship fails the round over to the in-process path instead of
// letting the worker drop the connection on an oversized frame.
func checkSnapshotSize(n int) error {
	if n+snapshotOverhead > maxMessage {
		return fmt.Errorf("%w: %d-byte exposed-store snapshot", ErrMessageTooBig, n)
	}
	return nil
}

// advanceSnapLocked moves job's snapshot cache from s.cur to the store's
// current version: it patches the previous canonical encoding with the keys
// changed since it, then refreshes every retained base's cached delta to
// target the new version, evicting oldest bases past the byte cap. Callers
// hold ex.snapMu.
func (ex *NetExecutor) advanceSnapLocked(job uint64, e *store.Exposed, s *jobSnap, ver uint64) ([]byte, uint64, error) {
	prev := s.cur
	oldest := s.byHash[s.lru[0]].ver
	changed, deleted := e.ChangedSince(oldest)

	// Encode each value changed since the previous version exactly once;
	// these bytes become part of the new canonical encoding.
	vw := &wbuf{}
	var chPrev []encEntry
	for _, c := range changed {
		if c.Ver <= prev.ver {
			continue
		}
		start := len(vw.b)
		if err := appendValue(vw, c.V, ex.opts.Values); err != nil {
			return nil, 0, err
		}
		chPrev = append(chPrev, encEntry{scope: c.Scope, name: c.Name, val: vw.b[start:]})
	}
	var delPrev []delKey
	for _, d := range deleted {
		if d.Ver > prev.ver {
			delPrev = append(delPrev, delKey{scope: d.Scope, name: d.Name})
		}
	}
	d := &snapDelta{Job: job, BaseHash: prev.hash, Changed: chPrev, Deleted: delPrev}
	newData, err := applySnapDelta(prev.data, d)
	if err != nil {
		return nil, 0, err // unreachable on our own encodings
	}
	newHash := fnv1a64(newData)
	if newHash == prev.hash {
		// Content-identical rewrite (same values re-Set, or scratch keys
		// Set and Deleted within one round): nothing to ship, but tombstones
		// behind the retention horizon still fall off — without this a
		// service job churning per-round scratch keys back to identical
		// content would grow the deleted-key map forever.
		freeBuf(newData)
		prev.ver = ver
		e.CompactDeletions(s.byHash[s.lru[0]].ver)
		return prev.data, prev.hash, nil
	}
	if err := checkSnapshotSize(len(newData)); err != nil {
		freeBuf(newData)
		return nil, 0, err
	}
	d.NewHash = newHash

	// Index the new encoding so per-base deltas slice current value bytes
	// out of it instead of re-encoding (which would change handle ids).
	ents, err := parseSnapEntries(newData)
	if err != nil {
		return nil, 0, err // unreachable: we just built it
	}
	index := make(map[delKey][]byte, len(ents))
	for _, en := range ents {
		index[delKey{scope: en.scope, name: en.name}] = en.val
	}

	prev.setDelta(encodeSnapDelta(d), len(newData))
	for _, h := range s.lru {
		b := s.byHash[h]
		if b == prev {
			continue
		}
		var ch []encEntry
		var del []delKey
		for _, c := range changed {
			if c.Ver <= b.ver {
				continue
			}
			if val, ok := index[delKey{scope: c.Scope, name: c.Name}]; ok {
				ch = append(ch, encEntry{scope: c.Scope, name: c.Name, val: val})
			}
		}
		for _, dk := range deleted {
			if dk.Ver > b.ver {
				del = append(del, delKey{scope: dk.Scope, name: dk.Name})
			}
		}
		b.setDelta(encodeSnapDelta(&snapDelta{
			Job: job, BaseHash: b.hash, NewHash: newHash, Changed: ch, Deleted: del,
		}), len(newData))
	}

	// A content hash seen before (a store that cycled back to earlier
	// contents) re-enters as the current version rather than duplicating.
	if old, ok := s.byHash[newHash]; ok {
		for i, h := range s.lru {
			if h == newHash {
				s.lru = append(s.lru[:i], s.lru[i+1:]...)
				break
			}
		}
		s.bytes -= len(old.data)
		delete(s.byHash, newHash)
	}
	cur := &snapVersion{ver: ver, hash: newHash, data: newData}
	s.byHash[newHash] = cur
	s.lru = append(s.lru, newHash)
	s.cur = cur
	s.bytes += len(newData)
	for (s.bytes > ex.snapCap || len(s.lru) > maxSnapVersions) && len(s.lru) > 1 {
		h := s.lru[0]
		s.lru = s.lru[1:]
		s.bytes -= len(s.byHash[h].data)
		delete(s.byHash, h)
		if ex.fm != nil {
			ex.fm.snapEvictions.Inc()
		}
	}
	// Tombstones at or below the oldest retained version can never be asked
	// about again.
	e.CompactDeletions(s.byHash[s.lru[0]].ver)
	return newData, newHash, nil
}

// setDelta caches payload as v's patch to the new current version unless it
// exceeds the ratio bound (half the full encoding), in which case ships from
// this base fall back to full with cause=ratio.
func (v *snapVersion) setDelta(payload []byte, fullLen int) {
	if len(payload)*2 <= fullLen {
		v.delta, v.ratioFail = payload, false
	} else {
		v.delta, v.ratioFail = nil, true
	}
}

// snapshotOverhead bounds the snapshot message's framing prefix (type byte,
// job uvarint, content hash).
const snapshotOverhead = 1 + binary.MaxVarintLen64 + 8

// BeginRound prepares one sampling round for dispatch: resolve or publish
// the region's registration, encode the exposed-store snapshot, and encode
// the round recipe every participating worker will receive once.
func (ex *NetExecutor) BeginRound(r core.RoundTask) (any, error) {
	ex.mu.Lock()
	live := ex.liveLocked()
	closed := ex.closed
	ex.mu.Unlock()
	if closed || live == 0 {
		return nil, core.ErrExecUnsupported
	}
	dyn := uint64(0)
	if _, ok := ex.opts.Registry.Named(r.Region); !ok {
		if !ex.opts.Dynamic || r.Body == nil {
			return nil, core.ErrExecUnsupported
		}
		dyn = ex.opts.Registry.registerDynamic(Registration{Spec: r.Spec, Body: r.Body})
	}
	data, hash, err := ex.snapshotFor(r.Job, r.Exposed)
	if err != nil {
		if dyn != 0 {
			ex.opts.Registry.releaseDynamic(dyn)
		}
		return nil, fmt.Errorf("%w: %v", core.ErrExecUnsupported, err)
	}
	ex.mu.Lock()
	ex.nextRound++
	id := ex.nextRound
	ex.mu.Unlock()
	rs := &roundState{id: id, job: r.Job, dyn: dyn, snapHash: hash, snapData: data}
	rs.payload = encodeRound(roundMsg{
		ID:       id,
		Job:      r.Job,
		Region:   r.Region,
		Dyn:      dyn,
		Seed:     r.Seed,
		Round:    r.Round,
		N:        r.N,
		SnapHash: hash,
		Feedback: r.Feedback,
	})
	return rs, nil
}

// EndRound retires a round: workers drop their round state and a dynamic
// registration is unpublished.
func (ex *NetExecutor) EndRound(handle any) {
	rs, ok := handle.(*roundState)
	if !ok {
		return
	}
	ex.mu.Lock()
	workers := make([]*dworker, 0, len(ex.workers))
	for _, w := range ex.workers {
		if !w.dead {
			workers = append(workers, w)
		}
	}
	ex.mu.Unlock()
	payload := encodeEndRound(rs.id)
	for _, w := range workers {
		w.shipMu.Lock()
		if w.sentRounds[rs.id] {
			delete(w.sentRounds, rs.id)
			w.wire.writeMsg(payload)
		}
		w.shipMu.Unlock()
	}
	if rs.dyn != 0 {
		ex.opts.Registry.releaseDynamic(rs.dyn)
	}
}

// EndJob retires one tuning job's executor state: the dispatcher-side
// encoded-snapshot cache entry is dropped and every live worker is told to
// evict the job's decoded snapshots. core.Tuner.Close calls it (via the
// core.JobEnder interface) when a job on a shared Runtime shuts down, so a
// long-lived executor does not accumulate state for departed tenants.
func (ex *NetExecutor) EndJob(job uint64) {
	ex.snapMu.Lock()
	delete(ex.snaps, job)
	ex.snapMu.Unlock()
	ex.mu.Lock()
	workers := make([]*dworker, 0, len(ex.workers))
	for _, w := range ex.workers {
		if !w.dead {
			workers = append(workers, w)
		}
		for sk := range w.haveSnaps {
			if sk.job == job {
				delete(w.haveSnaps, sk)
			}
		}
	}
	ex.mu.Unlock()
	payload := encodeEndJob(job)
	for _, w := range workers {
		w.shipMu.Lock()
		sent := false
		for sk := range w.sentSnaps {
			if sk.job == job {
				delete(w.sentSnaps, sk)
				sent = true
			}
		}
		if sent {
			w.wire.writeMsg(payload)
		}
		w.shipMu.Unlock()
	}
}

// Execute queues one sampling-process attempt and blocks until a worker
// returns its result, the context expires, or the fleet is gone.
func (ex *NetExecutor) Execute(ctx context.Context, handle any, group, attempt int) (core.ExecResult, error) {
	rs, ok := handle.(*roundState)
	if !ok {
		return core.ExecResult{}, core.ErrExecUnsupported
	}
	c := &call{r: rs, group: group, attempt: attempt, done: make(chan callOutcome, 1), enq: time.Now()}
	if rs.snapData != nil {
		c.sk = snapKey{job: rs.job, hash: rs.snapHash}
	}
	ex.mu.Lock()
	if ex.closed || ex.liveLocked() == 0 {
		ex.mu.Unlock()
		return core.ExecResult{}, core.ErrExecUnsupported
	}
	ex.nextCall++
	c.id = ex.nextCall
	// Fast path: with an empty queue and a live worker holding a free slot,
	// claim the call inline and ship it from this goroutine — skipping the
	// pump wakeup and handoff, which dominate loopback dispatch latency at
	// small fleet sizes. The queue-empty check keeps FIFO fairness: nothing
	// ever overtakes a waiting call. Affinity-first: a free worker already
	// holding this sample's snapshot wins over round-robin; when only busy
	// workers hold it, the sample queues with a bounded affinity deadline
	// instead of claiming a cold worker outright.
	var fast *dworker
	if len(ex.queue) == 0 {
		var free, affFree *dworker
		affHeld := false
		n := len(ex.workers)
		start := ex.rr
		ex.rr++
		for i := 0; i < n; i++ {
			w := ex.workers[(start+i)%n]
			if w.dead || w.draining {
				continue
			}
			hasSlot := len(w.inflight) < w.slots
			if c.sk.hash != 0 {
				if _, held := w.haveSnaps[c.sk]; held {
					affHeld = true
					if hasSlot && affFree == nil {
						affFree = w
					}
				}
			}
			if hasSlot && free == nil {
				free = w
			}
		}
		switch {
		case affFree != nil:
			fast = affFree
		case affHeld && ex.affWait > 0:
			// A holder exists but is saturated: park briefly for its slot.
		default:
			fast = free
		}
		if fast != nil {
			ex.claimLocked(fast, c)
		}
	}
	if fast == nil {
		if c.sk.hash != 0 && ex.affWait > 0 && ex.affinityHeldLocked(c.sk) {
			c.affDeadline = time.Now().Add(ex.affWait)
			c.affTimer = time.AfterFunc(ex.affWait, func() {
				ex.mu.Lock()
				ex.cond.Broadcast() // deadline passed: any pump may steal it now
				ex.mu.Unlock()
			})
		}
		ex.queue = append(ex.queue, c)
		ex.cond.Broadcast()
	}
	ex.mu.Unlock()
	if fast != nil {
		fast.m.observeDispatch(c.enq, c.sent)
		if err := fast.ship(c); err != nil {
			// fail bounces our in-flight call through c.done below.
			ex.fail(fast, err)
		}
	}

	select {
	case out := <-c.done:
		return out.res, out.err
	case <-ctx.Done():
		ex.mu.Lock()
		for i, qc := range ex.queue {
			if qc == c {
				ex.queue = append(ex.queue[:i], ex.queue[i+1:]...)
				break
			}
		}
		if c.affTimer != nil {
			c.affTimer.Stop()
			c.affTimer = nil
		}
		// If a worker already claimed the call, its eventual result is
		// discarded on arrival; the worker slot frees itself then.
		c.abandoned = true
		ex.mu.Unlock()
		select {
		case out := <-c.done: // result raced the cancellation: keep it
			return out.res, out.err
		default:
		}
		return core.ExecResult{}, ctx.Err()
	}
}

// claimLocked assigns c to w: slot accounting, dispatch timestamps, and the
// affinity bookkeeping — a claim by a worker already holding c's snapshot is
// a hit, any other claim a miss that extends the snapshot's worker set.
// Callers hold ex.mu.
func (ex *NetExecutor) claimLocked(w *dworker, c *call) {
	w.inflight[c.id] = c
	c.worker = w
	c.sent = time.Now()
	w.m.setInflight(len(w.inflight))
	if c.affTimer != nil {
		c.affTimer.Stop()
		c.affTimer = nil
	}
	if c.sk.hash != 0 {
		if _, held := w.haveSnaps[c.sk]; held {
			if ex.fm != nil {
				ex.fm.affHits.Inc()
			}
		} else {
			w.haveSnaps[c.sk] = struct{}{}
			if ex.fm != nil {
				ex.fm.affMisses.Inc()
			}
		}
	}
}

// affinityHeldLocked reports whether any live worker holds sk. Callers hold
// ex.mu.
func (ex *NetExecutor) affinityHeldLocked(sk snapKey) bool {
	for _, w := range ex.workers {
		if w.dead || w.draining {
			continue
		}
		if _, held := w.haveSnaps[sk]; held {
			return true
		}
	}
	return false
}

// claimQueuedLocked scans the queue head-first for the first call w may
// take: a call with no affinity deadline is always claimable (FIFO), one
// with a deadline is claimable by a holder of its snapshot immediately and
// by anyone once the deadline passes or the holders are gone — bounded
// affinity, never starvation. Returns nil if nothing is claimable. Callers
// hold ex.mu.
func (ex *NetExecutor) claimQueuedLocked(w *dworker) *call {
	var now time.Time
	for i, c := range ex.queue {
		if !c.affDeadline.IsZero() {
			if _, held := w.haveSnaps[c.sk]; !held {
				if now.IsZero() {
					now = time.Now()
				}
				if now.Before(c.affDeadline) && ex.affinityHeldLocked(c.sk) {
					continue // hold out for an affine slot a bit longer
				}
			}
		}
		ex.queue = append(ex.queue[:i], ex.queue[i+1:]...)
		ex.claimLocked(w, c)
		return c
	}
	return nil
}

// pump is a worker connection's stealing loop: whenever the worker has a
// free slot, claim the first queued call the affinity policy lets it take
// and ship it.
func (w *dworker) pump() {
	ex := w.ex
	for {
		ex.mu.Lock()
		var c *call
		for {
			if w.dead || w.draining || ex.closed {
				ex.mu.Unlock()
				return
			}
			if len(w.inflight) < w.slots {
				if c = ex.claimQueuedLocked(w); c != nil {
					break
				}
			}
			ex.cond.Wait()
		}
		ex.mu.Unlock()
		w.m.observeDispatch(c.enq, c.sent)
		if err := w.ship(c); err != nil {
			ex.fail(w, err)
			return
		}
	}
}

// ship sends one claimed call: the snapshot is queued on the bulk lane if
// this worker has not seen this content hash, the round recipe is written if
// it has not seen this round, and then the task itself — all encoded into
// pooled frame buffers, allocation-free in the steady state. shipMu keeps
// the round frame ahead of its tasks on the connection even when the pump
// and a fast-path Execute ship concurrently; the snapshot intentionally
// bypasses that ordering (tasks park worker-side until it lands) so a large
// @load state never head-of-line blocks the fleet.
func (w *dworker) ship(c *call) error {
	w.shipMu.Lock()
	defer w.shipMu.Unlock()
	rs := c.r
	sk := snapKey{job: rs.job, hash: rs.snapHash}
	if rs.snapData != nil {
		if !w.sentSnaps[sk] {
			if w.m != nil {
				w.m.snapMisses.Inc()
			}
			if err := w.queueSnapshotLocked(rs.job, rs.snapHash, rs.snapData); err != nil {
				return err
			}
		} else if w.m != nil {
			w.m.snapHits.Inc()
		}
	}
	if !w.sentRounds[rs.id] {
		if err := w.wire.writeMsg(rs.payload); err != nil {
			return err
		}
		w.sentRounds[rs.id] = true
	}
	wb := getFrameBuf()
	appendTask(wb, taskMsg{ID: c.id, Round: rs.id, Group: c.group, Attempt: c.attempt})
	err := w.wire.writeBuf(wb)
	putFrameBuf(wb)
	return err
}

var errWorkerStopped = errors.New("remote: worker connection stopped")

// bulkLoop is the connection's snapshot lane: it streams queued snapshot
// ships as chunk frames, releasing the wire between chunks so rounds, tasks,
// and results of other jobs interleave into the gaps instead of waiting out
// the transfer.
func (w *dworker) bulkLoop() {
	var hdr wbuf
	for {
		select {
		case it := <-w.bulkq:
			var err error
			if it.delta != nil {
				err = w.wire.writeMsg(it.delta)
			} else {
				hdr.b = hdr.b[:0]
				hdr.byte(mSnapshot)
				hdr.uv(it.job)
				hdr.u64(it.hash)
				err = w.wire.writeMsg(hdr.b, it.data)
			}
			if err != nil {
				w.ex.fail(w, err)
				return
			}
		case <-w.stop:
			return
		}
	}
}

// readLoop consumes worker frames: result batches, the drain announcement,
// and the goodbye. Chunked messages reassemble through the demux; decode
// scratch (frame buffer, batch slice, name interning) is connection-owned
// and reused, so the steady-state result path does not allocate per frame.
// Any error fails the worker.
func (w *dworker) readLoop() {
	ex := w.ex
	dmx := newDemuxBound(w.chunkBound)
	defer dmx.close()
	var dec decoder
	var buf []byte
	defer func() { freeBuf(buf) }()
	// Buffer the conn so header and payload of a small frame cost one Read
	// (one wakeup on synchronous pipes) instead of two.
	br := bufio.NewReaderSize(w.c, readBufSize)
	for {
		payload, err := readFrame(br, buf)
		buf = payload // adopt even on error: readFrame may have recycled buf
		if err != nil {
			ex.fail(w, err)
			return
		}
		msg, pooled, err := dmx.feed(payload)
		if err != nil {
			ex.fail(w, err)
			return
		}
		if msg == nil {
			continue // mid-stream chunk
		}
		if len(msg) == 0 {
			ex.fail(w, errCodec)
			return
		}
		switch msg[0] {
		case mResults:
			batch, err := decodeResults(msg[1:], ex.opts.Values, &dec)
			if err != nil {
				ex.fail(w, err)
				return
			}
			for _, m := range batch {
				ex.deliver(w, m)
			}
		case mSnapNack:
			n, err := decodeSnapNack(msg[1:])
			if err != nil {
				ex.fail(w, err)
				return
			}
			ex.handleSnapNack(w, n)
		case mDrain:
			ex.mu.Lock()
			w.draining = true
			ex.uncountLocked(w) // capacity watchers shrink the sampling bound
			ex.cond.Broadcast() // release the pump; in-flight results still arrive
			ex.mu.Unlock()
		case mBye:
			ex.fail(w, errWorkerBye)
			return
		default:
			ex.fail(w, fmt.Errorf("%w: unexpected frame type %d", errCodec, msg[0]))
			return
		}
		if pooled {
			freeBuf(msg)
		}
	}
}

var errWorkerBye = fmt.Errorf("remote: worker drained and disconnected")

// handleSnapNack answers a worker's typed delta refusal (base missing from
// its cache, or a post-patch hash mismatch) with an immediate full ship of
// the refused version — divergence heals in one round trip; it is never
// silent. The sent mark is cleared first so that even if the encoded bytes
// are no longer retained, a later round re-ships rather than wedging the
// worker's parked tasks until snapWaitTimeout bounces them.
func (ex *NetExecutor) handleSnapNack(w *dworker, n snapNack) {
	ex.countFallback(func(m *fleetMetrics) *obs.Counter { return m.fallbackNack })
	ex.snapMu.Lock()
	var data []byte
	if s := ex.snaps[n.Job]; s != nil {
		if v := s.byHash[n.NewHash]; v != nil {
			data = v.data
		}
	}
	ex.snapMu.Unlock()
	sk := snapKey{job: n.Job, hash: n.NewHash}
	w.shipMu.Lock()
	delete(w.sentSnaps, sk)
	if data != nil {
		w.sentSnaps[sk] = true
		ex.countSnapBytes(false, len(data))
		select {
		case w.bulkq <- bulkItem{job: n.Job, hash: n.NewHash, data: data}:
		case <-w.stop:
			delete(w.sentSnaps, sk)
		}
	}
	w.shipMu.Unlock()
}

// deliver hands one result to its waiting Execute call and frees the slot.
func (ex *NetExecutor) deliver(w *dworker, m resultMsg) {
	ex.mu.Lock()
	c, ok := w.inflight[m.ID]
	if ok {
		delete(w.inflight, m.ID)
		w.m.setInflight(len(w.inflight))
	}
	var send bool
	if ok && !c.delivered && !c.abandoned {
		c.delivered = true
		send = true
	}
	ex.cond.Broadcast() // a slot freed; pumps re-check the queue
	ex.mu.Unlock()
	if send {
		w.m.observeRPC(c.sent)
		c.done <- callOutcome{res: m.Res}
	}
}

// fail marks a worker dead, retires its slots from the counted capacity
// (exactly once, even when racing an explicit retirement or drain), reaps it
// from the fleet, and bounces its in-flight samples back through the retry
// machinery as retryable failures.
func (ex *NetExecutor) fail(w *dworker, cause error) {
	ex.mu.Lock()
	if w.dead {
		ex.mu.Unlock()
		return
	}
	w.dead = true
	ex.uncountLocked(w)
	for i, x := range ex.workers {
		if x == w {
			ex.workers = append(ex.workers[:i], ex.workers[i+1:]...)
			break
		}
	}
	close(w.stop) // releases the bulk lane and any ship blocked feeding it
	orphans := make([]*call, 0, len(w.inflight))
	for id, c := range w.inflight {
		delete(w.inflight, id)
		if !c.delivered && !c.abandoned {
			c.delivered = true
			orphans = append(orphans, c)
		}
	}
	w.m.setInflight(0)
	ex.cond.Broadcast()
	ex.mu.Unlock()

	if w.m != nil && cause != errWorkerBye && cause != errWorkerRetired {
		w.m.failures.Inc()
	}
	w.c.Close()
	for _, c := range orphans {
		c.done <- callOutcome{err: core.Transient(fmt.Errorf(
			"remote: worker %s lost with sample in flight: %w", w.name, cause))}
	}
}

// Close tears the executor down: every connection closes, queued and
// in-flight calls fail over to the local path.
func (ex *NetExecutor) Close() {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return
	}
	ex.closed = true
	workers := append([]*dworker(nil), ex.workers...)
	queued := ex.queue
	ex.queue = nil
	for _, c := range queued {
		if c.affTimer != nil {
			c.affTimer.Stop()
			c.affTimer = nil
		}
		if !c.delivered && !c.abandoned {
			c.delivered = true
		}
	}
	ex.cond.Broadcast()
	ex.mu.Unlock()
	for _, c := range queued {
		c.done <- callOutcome{err: core.ErrExecUnsupported}
	}
	for _, w := range workers {
		ex.fail(w, fmt.Errorf("remote: executor closed"))
	}
}

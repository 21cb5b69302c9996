package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/sched"
	"repro/internal/store"
)

// The fleet workload runs a cheap-body program through a remote.NetExecutor
// fed by two in-process remote.Workers over loopback TCP, one connection
// each. Each pass is a new job: it exposes a ~128 KiB blob once, then every
// round rewrites a few small keys and runs one unscored region, so
// dispatch, delta snapshot shipping, the wire codec and worker execution
// do the work. Every pass must match the same program run in-process at
// set-up: every sample's committed value byte-identical, the Avg aggregates
// to rounding (see aggTolerance).
//
// throughput_per_s is samples per second; latency_p50_ms is one P.Region
// call.

const (
	fleetBlobLen = 16384 // float64s, ~128 KiB encoded
	fleetRounds  = 64
	fleetSamples = 32
	fleetWorkers = 2
)

// countingConn counts what the dispatcher writes to and reads from one
// worker connection.
type countingConn struct {
	net.Conn
	out, in, writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.out.Add(int64(n))
	c.writes.Add(1)
	return n, err
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.in.Add(int64(n))
	return n, err
}

// execKey names one sampling-process attempt of the current region.
type execKey struct {
	region int64
	group  int
}

// tracedExecutor wraps the NetExecutor with spans around each core.Executor
// call. It forwards every optional interface NetExecutor implements, so the
// runtime takes the same code paths with and without the wrapper; with a
// nil tracer it only forwards.
type tracedExecutor struct {
	ex     *remote.NetExecutor
	tr     atomic.Pointer[tracer]
	op     atomic.Int64 // operation id of the round in flight
	region atomic.Int64 // span id of its Region call
	execs  sync.Map     // execKey -> Execute span id, for worker body spans
}

var (
	_ core.ElasticExecutor = (*tracedExecutor)(nil)
	_ core.JobEnder        = (*tracedExecutor)(nil)
	_ core.SnapshotPrimer  = (*tracedExecutor)(nil)
)

func (e *tracedExecutor) BeginRound(r core.RoundTask) (any, error) {
	tr := e.tr.Load()
	id, s := tr.id(), tr.now()
	h, err := e.ex.BeginRound(r)
	tr.add(id, e.region.Load(), e.op.Load(), "remote.BeginRound", s)
	return h, err
}

func (e *tracedExecutor) Execute(ctx context.Context, h any, group, attempt int) (core.ExecResult, error) {
	tr := e.tr.Load()
	if tr == nil {
		return e.ex.Execute(ctx, h, group, attempt)
	}
	reg := e.region.Load()
	id, s := tr.id(), tr.now()
	k := execKey{reg, group}
	e.execs.Store(k, id)
	res, err := e.ex.Execute(ctx, h, group, attempt)
	e.execs.Delete(k)
	tr.add(id, reg, e.op.Load(), "remote.Execute", s)
	return res, err
}

func (e *tracedExecutor) EndRound(h any) {
	tr := e.tr.Load()
	id, s := tr.id(), tr.now()
	e.ex.EndRound(h)
	tr.add(id, e.region.Load(), e.op.Load(), "remote.EndRound", s)
}

func (e *tracedExecutor) Capacity() int             { return e.ex.Capacity() }
func (e *tracedExecutor) WatchCapacity(f func(int)) { e.ex.WatchCapacity(f) }
func (e *tracedExecutor) EndJob(job uint64)         { e.ex.EndJob(job) }
func (e *tracedExecutor) PrimeSnapshot(job uint64, s *store.Exposed) error {
	return e.ex.PrimeSnapshot(job, s)
}

type fleetFixture struct {
	cfg             config
	blob            []float64
	ref             []roundDigest
	oreg            *obs.Registry
	ex              *remote.NetExecutor
	wrap            *tracedExecutor
	workers         []*remote.Worker
	serving         sync.WaitGroup
	out, in, writes atomic.Int64
}

func setupFleet(cfg config) (fixture, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	f := &fleetFixture{cfg: cfg, blob: make([]float64, fleetBlobLen), oreg: obs.NewRegistry()}
	for i := range f.blob {
		f.blob[i] = rng.Float64()
	}
	ref, _, err := f.pass(nil, nil)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	f.ref = ref
	reg := remote.NewRegistry()
	f.ex = remote.NewExecutor(remote.ExecutorOptions{Registry: reg, Dynamic: true, Obs: f.oreg})
	f.wrap = &tracedExecutor{ex: f.ex}
	for i := 0; i < fleetWorkers; i++ {
		if err := f.addWorker(i, reg); err != nil {
			f.close()
			return nil, err
		}
	}
	// Warm-up: one pass over the fleet, checked like every measured one.
	got, _, err := f.pass(f.wrap, nil)
	if err != nil {
		f.close()
		return nil, err
	}
	if d, _ := compareDigests(got, f.ref, false); d != "" {
		f.close()
		return nil, fmt.Errorf("fleet warm-up differs from the in-process run: %s", d)
	}
	return f, nil
}

// addWorker starts one single-slot worker on a loopback listener and
// connects the executor to it through a counting connection.
func (f *fleetFixture) addWorker(i int, reg *remote.Registry) error {
	w := remote.NewWorker(remote.WorkerOptions{Name: fmt.Sprintf("bench-w%d", i), Slots: 1, Registry: reg})
	f.workers = append(f.workers, w)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = w.Serve(ln) // returns when Close closes the listener
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	return f.ex.AddConn(countingConn{Conn: conn, out: &f.out, in: &f.in, writes: &f.writes})
}

func (f *fleetFixture) close() {
	if f.ex != nil {
		f.ex.Close()
	}
	for _, w := range f.workers {
		w.Close()
	}
	f.serving.Wait()
}

// fleetPassStats is what one pass measured beyond its dump.
type fleetPassStats struct {
	lat     []float64 // Region calls, ms
	expose  []float64 // P.Expose calls, µs
	metrics core.Metrics
	load    sched.LoadStats
}

// pass runs one job of the fleet program; exec nil runs it in-process.
func (f *fleetFixture) pass(exec *tracedExecutor, tr *tracer) ([]roundDigest, *fleetPassStats, error) {
	opts := core.Options{MaxPool: runtime.GOMAXPROCS(0), Seed: f.cfg.seed}
	if exec != nil {
		opts.Executor = exec
	}
	t := core.New(opts)
	defer t.Close()
	st := &fleetPassStats{}
	spec := core.RegionSpec{Name: "fleet", Samples: fleetSamples, Aggregate: map[string]agg.Kind{"y": agg.Avg}}
	var dump []roundDigest
	err := t.Run(func(p *core.P) error {
		p.Expose("blob", f.blob)
		for r := 0; r < fleetRounds; r++ {
			op, s := tr.id(), tr.now()
			f.expose(p, tr, op, st, "knob", 1+float64(r%7)*0.25)
			f.expose(p, tr, op, st, "bias", f.blob[r%len(f.blob)])
			f.expose(p, tr, op, st, "round", r)
			rid, rs := tr.id(), tr.now()
			if exec != nil {
				exec.op.Store(op)
				exec.region.Store(rid)
			}
			t0 := time.Now()
			res, err := p.Region(spec, f.body(exec, tr))
			st.lat = append(st.lat, durMs(time.Since(t0)))
			tr.add(rid, op, op, "core.Region", rs)
			tr.add(op, 0, op, "op.round", s)
			if err != nil {
				return err
			}
			dump = append(dump, digestRound(res, "y"))
		}
		return nil
	})
	st.metrics = t.Metrics()
	st.load = t.Runtime().Load()
	return dump, st, err
}

// expose is one timed P.Expose call of the round loop.
func (f *fleetFixture) expose(p *core.P, tr *tracer, op int64, st *fleetPassStats, key string, v any) {
	id, s := tr.id(), tr.now()
	t0 := time.Now()
	p.Expose(key, v)
	st.expose = append(st.expose, durUs(time.Since(t0)))
	tr.add(id, op, op, "store.Expose", s)
}

// body is the region's sample body. On the fleet it runs inside a worker;
// when tracing it records a worker-side span under its Execute span.
func (f *fleetFixture) body(exec *tracedExecutor, tr *tracer) func(sp *core.SP) error {
	return func(sp *core.SP) error {
		s := tr.now()
		x := sp.Float("x", unit)
		b := sp.Load("blob").([]float64)
		k := sp.Load("knob").(float64)
		r := sp.Load("round").(int)
		y := x*k + b[(int(x*float64(len(b)))+r)%len(b)] + sp.Load("bias").(float64)
		sp.Commit("y", y)
		if tr != nil && exec != nil {
			reg := exec.region.Load()
			if parent, ok := exec.execs.Load(execKey{reg, sp.Index()}); ok {
				tr.add(tr.id(), parent.(int64), exec.op.Load(), "bench.worker_body", s)
			}
		}
		return nil
	}
}

// counterSum sums every series of a counter family, optionally only those
// carrying label=value.
func counterSum(reg *obs.Registry, name, label, value string) float64 {
	var v float64
	for _, fam := range reg.Snapshot() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			if label == "" || hasLabel(s.Labels, label, value) {
				v += s.Value
			}
		}
	}
	return v
}

func hasLabel(labels []string, k, v string) bool {
	for i := 0; i+1 < len(labels); i += 2 {
		if labels[i] == k && labels[i+1] == v {
			return true
		}
	}
	return false
}

func (f *fleetFixture) measure(ph *phase, deadline time.Time, tr *tracer) error {
	f.wrap.tr.Store(tr)
	defer f.wrap.tr.Store(nil)
	out0, in0, w0 := f.out.Load(), f.in.Load(), f.writes.Load()
	fb0 := counterSum(f.oreg, remote.MetricSnapDeltaFallback, "", "")
	hit0 := counterSum(f.oreg, remote.MetricAffinityHits, "", "")
	miss0 := counterSum(f.oreg, remote.MetricAffinityMisses, "", "")
	var lat, expose, full, delta []float64
	var m core.Metrics
	var admitted, waited, waitNs int64
	var samples int64
	var busy time.Duration
	for time.Now().Before(deadline) {
		fb, db := counterSum(f.oreg, remote.MetricSnapshotBytes, "mode", "full"), counterSum(f.oreg, remote.MetricSnapshotBytes, "mode", "delta")
		start := time.Now()
		got, st, err := f.pass(f.wrap, tr)
		el := time.Since(start)
		busy += el
		if err != nil {
			return err
		}
		ph.rates = append(ph.rates, float64(st.metrics.Samples)/el.Seconds())
		full = append(full, counterSum(f.oreg, remote.MetricSnapshotBytes, "mode", "full")-fb)
		delta = append(delta, counterSum(f.oreg, remote.MetricSnapshotBytes, "mode", "delta")-db)
		ph.attempted += len(got)
		if want := int64(fleetRounds * fleetSamples); st.metrics.Samples != want {
			ph.fail("pass ran %d samples, want %d", st.metrics.Samples, want)
		}
		d, inexact := compareDigests(got, f.ref, false)
		if d != "" {
			ph.fail("fleet pass differs from the in-process run: %s", d)
		}
		ph.named["rounds_agg_not_bit_identical"] += float64(inexact)
		samples += st.metrics.Samples
		lat = append(lat, st.lat...)
		expose = append(expose, st.expose...)
		addCounters(&m, st.metrics)
		admitted += st.load.Admitted
		waited += st.load.Waited
		waitNs += st.load.WaitNanos
	}
	ph.lat = lat
	ph.named["samples_per_s"] = float64(samples) / busy.Seconds()
	ph.named["round_p50_us"] = median(lat) * 1000
	ph.named["round_p99_us"] = tailOr(ph, "round_p99_us", lat, 99) * 1000
	coreCounters(ph, m)
	if admitted > 0 {
		ph.layer["sched.wait_share"] = float64(waited) / float64(admitted)
		ph.layer["sched.wait_us_per_admit"] = float64(waitNs) / 1e3 / float64(admitted)
	}
	ph.layer["store.expose_us"] = median(expose)
	if samples > 0 {
		n := float64(samples)
		ph.layer["remote.wire_bytes_out_per_sample"] = float64(f.out.Load()-out0) / n
		ph.layer["remote.wire_bytes_in_per_sample"] = float64(f.in.Load()-in0) / n
		ph.layer["remote.wire_writes_per_sample"] = float64(f.writes.Load()-w0) / n
	}
	ph.layer["remote.snapshot_full_bytes"] = median(full)
	ph.layer["remote.snapshot_delta_bytes"] = median(delta)
	ph.named["snapshot_full_bytes_per_pass"] = median(full)
	ph.named["snapshot_delta_bytes_per_pass"] = median(delta)
	ph.layer["remote.delta_fallbacks"] = counterSum(f.oreg, remote.MetricSnapDeltaFallback, "", "") - fb0
	hits := counterSum(f.oreg, remote.MetricAffinityHits, "", "") - hit0
	misses := counterSum(f.oreg, remote.MetricAffinityMisses, "", "") - miss0
	if hits+misses > 0 {
		ph.layer["remote.affinity_hit_ratio"] = hits / (hits + misses)
	}
	for _, fam := range f.oreg.Snapshot() {
		if fam.Name == remote.MetricSnapDeltaFallback {
			for _, s := range fam.Series {
				ph.notes = append(ph.notes, fmt.Sprintf("delta fallbacks %v: %v (since set-up)", s.Labels, s.Value))
			}
		}
	}
	if tr != nil {
		fleetSpans(ph, tr.snapshot())
	}
	return nil
}

// fleetSpans derives the remote layer's timings from the traced spans.
func fleetSpans(ph *phase, spans []span) {
	byName := map[string][]float64{}
	bodyOf := map[int64]int64{} // Execute span id -> worker body duration
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e3)
		if s.Name == "bench.worker_body" {
			bodyOf[s.Parent] = s.dur()
		}
	}
	var execSelf []float64
	for _, s := range spans {
		if s.Name == "remote.Execute" {
			if b, ok := bodyOf[s.ID]; ok {
				execSelf = append(execSelf, float64(s.dur()-b)/1e3)
			}
		}
	}
	ph.layer["remote.begin_round_p50_us"] = median(byName["remote.BeginRound"])
	ph.layer["remote.end_round_p50_us"] = median(byName["remote.EndRound"])
	ph.layer["remote.execute_p50_us"] = median(byName["remote.Execute"])
	ph.layer["remote.execute_p99_us"] = tailOr(ph, "remote.execute_p99_us", byName["remote.Execute"], 99)
	ph.layer["remote.execute_self_p50_us"] = median(execSelf)
	ph.layer["remote.worker_body_p50_us"] = median(byName["bench.worker_body"])
	self, _ := regionSelf(spans, "core.Region", "remote")
	ph.layer["core.round_self_p50_us"] = median(self)
	ph.layer["core.round_self_p99_us"] = tailOr(ph, "core.round_self_p99_us", self, 99)
}

package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/strategy"
)

// The sampling and scored workloads drive the in-process runtime with a
// cheap sample body, so SP spawn, Algorithm 1 admission, store primitives
// and aggregation do almost all the work.
//
// sampling: an unscored 256-sample region with Avg aggregation, run round
// after round by two split tuning processes. throughput_per_s is samples
// per second; latency_p50_ms is one P.Region call.
//
// scored: one tuning process repeats a 64-sample region with a Score for
// scoredRounds rounds, so the region's feedback history grows to thousands
// of entries within a pass. throughput_per_s is samples per second;
// latency_p50_ms is one P.Region call, early and late rounds alike.
//
// Both check a per-round aggregate digest against a reference pass made at
// set-up, and exact sample counts.

const (
	samplingSamples = 256
	samplingRounds  = 32 // per tuning process per pass
	samplingSplits  = 2
	// samplingStride: one round in this many records its sample-body spans
	// when tracing, which bounds the span count at ~250k samples/s while
	// leaving enough traced rounds for a p99.
	samplingStride = 4
	// storeEvery: one sample in this many times its own store calls.
	storeEvery = 32

	scoredSamples = 64
	scoredRounds  = 48
	inputLen      = 64
)

var unit = dist.Uniform(0, 1)

// genInputs makes the exposed input vector from the seed.
func genInputs(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]float64, inputLen)
	for i := range in {
		in[i] = rng.Float64()
	}
	return in
}

// spin is the sensitivity check's known extra work: n dependent
// multiply-adds. Their result is folded into acc times zero, which the
// compiler may not drop for floats, so the work stays and the committed
// value (and with it the output check) is unchanged.
func spin(n int, acc float64) float64 {
	x := acc
	for i := 0; i < n; i++ {
		x = x*0.999999 + 1e-9
	}
	return acc + (x-acc)*0
}

// storeTimes accumulates the timed store calls of the traced subset.
type storeTimes struct {
	floatNs, loadNs, commitNs []float64
}

// samplingBody is the rand phase's sample body. With tr non-nil it also
// records its own span under regionID and, in one sample of storeEvery,
// times its store calls in batches of 16.
func samplingBody(bodySpin int, tr *tracer, regionID int64, st *storeTimes, mu *sync.Mutex) func(sp *core.SP) error {
	return func(sp *core.SP) error {
		id, s := tr.id(), tr.now()
		timed := tr != nil && sp.Index()%storeEvery == 0
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		acc := 0.0
		for j := 0; j < 8; j++ {
			acc += sp.Float("alpha", unit) + sp.Float("beta", unit)
		}
		var t1 time.Time
		if timed {
			t1 = time.Now()
		}
		for j := 0; j < 8; j++ {
			in := sp.Load("inputs").([]float64)
			acc += in[(sp.Index()+j)%len(in)] * sp.Load("scale").(float64)
		}
		var t2 time.Time
		if timed {
			t2 = time.Now()
		}
		acc = spin(bodySpin, acc)
		sp.Commit("y", acc)
		if timed {
			t3 := time.Now()
			mu.Lock()
			st.floatNs = append(st.floatNs, float64(t1.Sub(t0))/16)
			st.loadNs = append(st.loadNs, float64(t2.Sub(t1))/16)
			st.commitNs = append(st.commitNs, float64(t3.Sub(t2)))
			mu.Unlock()
		}
		tr.add(id, regionID, regionID, "bench.body", s)
		return nil
	}
}

type samplingFixture struct {
	cfg    config
	inputs []float64
	ref    []roundDigest // per-round digests of one pass
}

func setupSampling(cfg config) (fixture, error) {
	f := &samplingFixture{cfg: cfg, inputs: genInputs(cfg.seed)}
	ref, _, err := f.pass(nil, nil)
	if err != nil {
		return nil, err
	}
	f.ref = ref
	// A second pass warms the runtime and checks the reference repeats.
	got, _, err := f.pass(nil, nil)
	if err != nil {
		return nil, err
	}
	if d, _ := compareDigests(got, ref, false); d != "" {
		return nil, fmt.Errorf("reference pass does not repeat: %s", d)
	}
	return f, nil
}

func (f *samplingFixture) close() {}

// passOut is what one pass measured beyond its digests.
type passOut struct {
	rounds  [][]time.Duration // Region calls, per tuning process
	metrics core.Metrics
	load    float64 // share of admissions that queued
	waitUs  float64 // wait per admission
	drain   float64 // ring drain batch mean
	st      storeTimes
}

// pass runs one pass: the root process exposes the inputs and splits into
// samplingSplits processes that each run samplingRounds rounds.
func (f *samplingFixture) pass(tr *tracer, reg *obs.Registry) ([]roundDigest, *passOut, error) {
	t := core.New(core.Options{MaxPool: runtime.GOMAXPROCS(0), Seed: f.cfg.seed, Incremental: true, Obs: reg})
	out := &passOut{rounds: make([][]time.Duration, samplingSplits)}
	digests := make([][]roundDigest, samplingSplits)
	spec := core.RegionSpec{Name: "hot", Samples: samplingSamples, Aggregate: map[string]agg.Kind{"y": agg.Avg}}
	var mu sync.Mutex
	err := t.Run(func(p *core.P) error {
		p.Expose("inputs", f.inputs)
		p.Expose("scale", 0.5+f.inputs[0])
		for c := 0; c < samplingSplits; c++ {
			c := c
			p.Split(func(child *core.P) error {
				for r := 0; r < samplingRounds; r++ {
					var rt *tracer
					if r%samplingStride == 0 {
						rt = tr
					}
					id, s := tr.id(), tr.now()
					body := samplingBody(f.cfg.bodySpin, rt, id, &out.st, &mu)
					t0 := time.Now()
					res, err := child.Region(spec, body)
					el := time.Since(t0)
					if rt != nil {
						tr.add(id, 0, id, "core.Region", s)
					} else {
						tr.addPartial(id, 0, id, "core.Region", s)
					}
					if err != nil {
						return err
					}
					out.rounds[c] = append(out.rounds[c], el)
					digests[c] = append(digests[c], digestRound(res, "y"))
				}
				return nil
			})
		}
		return p.Wait()
	})
	if err != nil {
		return nil, nil, err
	}
	out.metrics = t.Metrics()
	ls := t.Runtime().Load()
	if ls.Admitted > 0 {
		out.load = float64(ls.Waited) / float64(ls.Admitted)
		out.waitUs = float64(ls.WaitNanos) / 1e3 / float64(ls.Admitted)
	}
	out.drain = histMean(reg, core.MetricRingDrainBatch)
	var all []roundDigest
	for _, d := range digests {
		all = append(all, d...)
	}
	return all, out, nil
}

// roundDigest is what the output checks compare for one round: sample
// slots, failed samples, the aggregate and the best score.
// values hashes the retained per-sample results in sample order (0 when
// the region folds them incrementally and retains none).
type roundDigest struct {
	n, failed int
	agg, best float64
	values    uint64
}

func (d roundDigest) String() string {
	return fmt.Sprintf("n=%d failed=%d agg=%v best=%v values=%016x", d.n, d.failed, d.agg, d.best, d.values)
}

func digestRound(res *core.Result, x string) roundDigest {
	d := roundDigest{n: res.N(), best: res.BestScore(), agg: math.NaN()}
	for i := 0; i < res.N(); i++ {
		if res.Err(i) != nil || res.TimedOut(i) {
			d.failed++
		}
	}
	if v, ok := res.Aggregated(x).(float64); ok {
		d.agg = v
	}
	if idx := res.Indices(x); len(idx) > 0 {
		h := fnv.New64a()
		var buf [16]byte
		for k, v := range res.Values(x) {
			f, _ := v.(float64)
			binary.LittleEndian.PutUint64(buf[:8], uint64(idx[k]))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(f))
			h.Write(buf[:])
		}
		d.values = h.Sum64()
	}
	return d
}

// aggTolerance bounds the relative difference allowed between an
// incrementally folded Avg and its reference. The incremental path adds
// committed values in arrival order, so the last bits of a float sum
// follow goroutine scheduling; a lost, duplicated or wrong sample moves a
// 256-sample mean by far more than this.
const aggTolerance = 1e-12

// compareDigests returns "" when got matches want, else the first
// difference. With exact false the aggregates may differ by aggTolerance;
// rounds that differ at all are counted in inexact.
func compareDigests(got, want []roundDigest, exact bool) (diff string, inexact int) {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rounds, want %d", len(got), len(want)), 0
	}
	for i, g := range got {
		w := want[i]
		sameAgg := sameFloat(g.agg, w.agg)
		if !sameAgg {
			inexact++
		}
		closeAgg := sameAgg || math.Abs(g.agg-w.agg) <= aggTolerance*math.Abs(w.agg)
		ok := g.n == w.n && g.failed == w.failed && g.values == w.values &&
			sameFloat(g.best, w.best) && closeAgg && (sameAgg || !exact)
		if !ok && diff == "" {
			diff = fmt.Sprintf("round %d: %v, want %v", i, g, w)
		}
	}
	return diff, inexact
}

// sameFloat is == with NaN equal to itself.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// histMean is the mean of every series of a histogram family in reg.
func histMean(reg *obs.Registry, name string) float64 {
	if reg == nil {
		return 0
	}
	var n uint64
	var sum float64
	for _, fam := range reg.Snapshot() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			n += s.Count
			sum += s.Sum
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (f *samplingFixture) measure(ph *phase, deadline time.Time, tr *tracer) error {
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	var lat []float64
	var all passOut
	var waitUs, waitShare []float64
	var busy time.Duration
	var drains []float64
	var samples int64
	for time.Now().Before(deadline) {
		start := time.Now()
		got, out, err := f.pass(tr, reg)
		el := time.Since(start)
		if err != nil {
			return err
		}
		ph.rates = append(ph.rates, float64(out.metrics.Samples)/el.Seconds())
		ph.attempted += len(got)
		want := int64(samplingSplits * samplingRounds * samplingSamples)
		if out.metrics.Samples != want {
			ph.fail("pass ran %d samples, want %d", out.metrics.Samples, want)
		}
		d, inexact := compareDigests(got, f.ref, false)
		if d != "" {
			ph.fail("pass digest differs from the set-up reference: %s", d)
		}
		ph.named["rounds_agg_not_bit_identical"] += float64(inexact)
		samples += out.metrics.Samples
		busy += el
		for _, rs := range out.rounds {
			for _, r := range rs {
				lat = append(lat, durMs(r))
			}
		}
		addCounters(&all.metrics, out.metrics)
		all.st.floatNs = append(all.st.floatNs, out.st.floatNs...)
		all.st.loadNs = append(all.st.loadNs, out.st.loadNs...)
		all.st.commitNs = append(all.st.commitNs, out.st.commitNs...)
		waitUs = append(waitUs, out.waitUs)
		waitShare = append(waitShare, out.load)
		drains = append(drains, out.drain)
	}
	ph.lat = lat
	ph.named["samples_per_s"] = float64(samples) / busy.Seconds()
	ph.named["round_p50_us"] = median(lat) * 1000
	ph.named["round_p99_us"] = tailOr(ph, "round_p99_us", lat, 99) * 1000
	ph.samples = float64(samples)
	coreCounters(ph, all.metrics)
	ph.layer["sched.wait_share"] = median(waitShare)
	ph.layer["sched.wait_us_per_admit"] = median(waitUs)
	ph.layer["agg.drain_batch_mean"] = median(drains)
	ph.layer["store.float_ns"] = median(all.st.floatNs)
	ph.layer["store.load_ns"] = median(all.st.loadNs)
	ph.layer["store.commit_ns"] = median(all.st.commitNs)
	if tr != nil {
		self, body := regionSelf(tr.snapshot(), "core.Region", "bench")
		ph.layer["core.round_self_p50_us"] = median(self)
		ph.layer["core.round_self_p99_us"] = tailOr(ph, "core.round_self_p99_us", self, 99)
		ph.layer["core.body_share"] = mean(body)
	}
	return nil
}

// addCounters folds one pass's Tuner counters into a run's: failure
// counts add up, peaks take the larger.
func addCounters(dst *core.Metrics, src core.Metrics) {
	dst.Pruned += src.Pruned
	dst.Panics += src.Panics
	dst.Timeouts += src.Timeouts
	dst.Retried += src.Retried
	dst.PeakRetained = max(dst.PeakRetained, src.PeakRetained)
	dst.Scheduler.PeakInUse = max(dst.Scheduler.PeakInUse, src.Scheduler.PeakInUse)
}

// coreCounters copies the Tuner counters the per-layer table reports.
func coreCounters(ph *phase, m core.Metrics) {
	ph.layer["core.pruned"] = float64(m.Pruned)
	ph.layer["core.panics"] = float64(m.Panics)
	ph.layer["core.timeouts"] = float64(m.Timeouts)
	ph.layer["core.retried"] = float64(m.Retried)
	ph.layer["agg.peak_retained"] = float64(m.PeakRetained)
	ph.layer["sched.peak_inuse"] = float64(m.Scheduler.PeakInUse)
}

// regionSelf returns, for every fully traced span named parent, its self
// time in µs and the share of it covered by its children in layer child.
func regionSelf(spans []span, parent, child string) (selfUs, childShare []float64) {
	kids := map[int64][]interval{}
	for _, s := range spans {
		if s.layer() == child {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	for _, s := range spans {
		if s.Name != parent || s.Partial || s.dur() <= 0 {
			continue
		}
		cov := coverage(s.Start, s.End, kids[s.ID])
		selfUs = append(selfUs, float64(s.dur()-cov)/1e3)
		childShare = append(childShare, float64(cov)/float64(s.dur()))
	}
	return selfUs, childShare
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// --- scored ---

type scoredFixture struct {
	cfg    config
	inputs []float64
	ref    []roundDigest
}

func setupScored(cfg config) (fixture, error) {
	f := &scoredFixture{cfg: cfg, inputs: genInputs(cfg.seed)}
	ref, _, _, err := f.pass(nil)
	if err != nil {
		return nil, err
	}
	f.ref = ref
	return f, nil
}

func (f *scoredFixture) close() {}

func scoredBody(tr *tracer, regionID int64) func(sp *core.SP) error {
	return func(sp *core.SP) error {
		id, s := tr.id(), tr.now()
		x := sp.Float("x", dist.Uniform(-2, 2))
		y := sp.Float("y", dist.Uniform(-2, 2))
		in := sp.Load("inputs").([]float64)
		c := in[sp.Index()%len(in)]
		sp.Commit("f", -(x-c)*(x-c)-(y-0.5)*(y-0.5))
		tr.add(id, regionID, regionID, "bench.body", s)
		return nil
	}
}

// pass runs one tuning process through scoredRounds rounds of one scored
// region; the feedback history grows by scoredSamples entries a round.
func (f *scoredFixture) pass(tr *tracer) ([]roundDigest, []time.Duration, core.Metrics, error) {
	t := core.New(core.Options{MaxPool: runtime.GOMAXPROCS(0), Seed: f.cfg.seed})
	spec := core.RegionSpec{
		Name:     "scored",
		Samples:  scoredSamples,
		Strategy: strategy.Rand(),
		Score:    func(sp *core.SP) float64 { return sp.MustGet("f").(float64) },
	}
	var digests []roundDigest
	var durs []time.Duration
	err := t.Run(func(p *core.P) error {
		p.Expose("inputs", f.inputs)
		for r := 0; r < scoredRounds; r++ {
			id, s := tr.id(), tr.now()
			t0 := time.Now()
			res, err := p.Region(spec, scoredBody(tr, id))
			durs = append(durs, time.Since(t0))
			tr.add(id, 0, id, "core.Region", s)
			if err != nil {
				return err
			}
			digests = append(digests, digestRound(res, "f"))
		}
		return nil
	})
	return digests, durs, t.Metrics(), err
}

func (f *scoredFixture) measure(ph *phase, deadline time.Time, tr *tracer) error {
	var lat []float64
	var m core.Metrics
	var samples int64
	var busy time.Duration
	for time.Now().Before(deadline) {
		start := time.Now()
		got, durs, pm, err := f.pass(tr)
		el := time.Since(start)
		busy += el
		if err != nil {
			return err
		}
		ph.rates = append(ph.rates, float64(pm.Samples)/el.Seconds())
		ph.attempted += len(got)
		if want := int64(scoredRounds * scoredSamples); pm.Samples != want {
			ph.fail("pass ran %d samples, want %d", pm.Samples, want)
		}
		if d, _ := compareDigests(got, f.ref, true); d != "" {
			ph.fail("pass digest differs from the set-up reference: %s", d)
		}
		samples += pm.Samples
		for _, d := range durs {
			lat = append(lat, durMs(d))
		}
		addCounters(&m, pm)
	}
	ph.samples = float64(samples)
	ph.lat = lat
	ph.named["scored_samples_per_s"] = float64(samples) / busy.Seconds()
	ph.named["scored_round_p50_us"] = median(lat) * 1000
	coreCounters(ph, m)
	if tr != nil {
		self, body := regionSelf(tr.snapshot(), "core.Region", "bench")
		ph.layer["core.scored_round_self_p50_us"] = median(self)
		ph.layer["core.scored_round_self_growth"] = growth(self, scoredRounds)
		ph.layer["core.round_self_p50_us"] = median(self)
		ph.layer["core.round_self_p99_us"] = tailOr(ph, "core.round_self_p99_us", self, 99)
		ph.layer["core.body_share"] = mean(body)
	}
	return nil
}

// growth is the median self time over the last tenth of each pass's rounds
// divided by the median over the first tenth. selfUs holds whole passes of
// rounds rounds each, in order.
func growth(selfUs []float64, rounds int) float64 {
	tenth := max(rounds/10, 1)
	var first, last []float64
	for i, v := range selfUs {
		switch r := i % rounds; {
		case r < tenth:
			first = append(first, v)
		case r >= rounds-tenth:
			last = append(last, v)
		}
	}
	if m := median(first); m > 0 {
		return median(last) / m
	}
	return math.NaN()
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// The service workload is the wbtuned path: a jobs.Manager behind a
// jobs.Server on a loopback listener, with a durable checkpoint.DirStore
// and a checkpoint every round. Two closed-loop clients act as tenants,
// each on one keep-alive connection: POST a spec, read the SSE round stream
// to its done event, repeat. The running set holds one job, so with two
// clients admission queues. Every job must end Completed with a result
// byte-identical to jobs.RunDirect of its spec, computed at set-up.
//
// throughput_per_s is jobs completed per second; latency_p50_ms is POST
// sent to done event received.

const (
	serviceClients    = 2
	serviceMaxRunning = 1
	serviceSeeds      = 16
)

// serviceMix is the job mix the clients cycle through: kernel-heavy canny
// jobs and cheaper synthetic jobs with more rounds, in both priority
// classes. A canny job's cost depends on its seed, so the mix spreads over
// serviceSeeds seeds of each program, offset from the workload seed.
func serviceMix(seed int64) []core.JobSpec {
	ck := &core.CheckpointSpec{Every: 1}
	synth := map[string]string{"rounds": "12", "samples": "16"}
	var mix []core.JobSpec
	for i := int64(0); i < serviceSeeds; i++ {
		cannyClass, synthClass := core.PriorityNormal, core.PriorityHigh
		if i%2 == 1 {
			cannyClass, synthClass = synthClass, cannyClass
		}
		mix = append(mix,
			core.JobSpec{Program: "canny", Seed: seed + 2*i, Class: cannyClass, Checkpoint: ck},
			core.JobSpec{Program: "synthetic", Seed: seed + 2*i + 1, Class: synthClass, Checkpoint: ck, Args: synth})
	}
	return mix
}

// ckptStore wraps the DirStore with a span and a size record around each
// Save, and forwards the Lister and Deleter sides so the manager keeps its
// full durable behaviour.
type ckptStore struct {
	ds      *checkpoint.DirStore
	tr      atomic.Pointer[tracer]
	parents sync.Map // job name -> [2]int64{op, parent span id}
	mu      sync.Mutex
	saveMs  []float64
	bytes   []float64
}

var (
	_ checkpoint.Lister  = (*ckptStore)(nil)
	_ checkpoint.Deleter = (*ckptStore)(nil)
)

func (c *ckptStore) Save(label string, data []byte) error {
	tr := c.tr.Load()
	id, s := tr.id(), tr.now()
	t0 := time.Now()
	err := c.ds.Save(label, data)
	el := time.Since(t0)
	if tr != nil {
		name := strings.TrimPrefix(strings.TrimPrefix(label, "ckpt-"), "spec-")
		if v, ok := c.parents.Load(name); ok {
			p := v.([2]int64)
			tr.add(id, p[1], p[0], "checkpoint.Save", s)
		}
	}
	c.mu.Lock()
	c.saveMs = append(c.saveMs, durMs(el))
	c.bytes = append(c.bytes, float64(len(data)))
	c.mu.Unlock()
	return err
}

func (c *ckptStore) Load(label string) ([]byte, error) { return c.ds.Load(label) }
func (c *ckptStore) List() ([]string, error)           { return c.ds.List() }
func (c *ckptStore) Delete(label string) error         { return c.ds.Delete(label) }

// take returns and clears the recorded saves.
func (c *ckptStore) take() (ms, bytes []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms, bytes = c.saveMs, c.bytes
	c.saveMs, c.bytes = nil, nil
	return ms, bytes
}

type serviceFixture struct {
	rt      *core.Runtime
	dir     string
	reg     *obs.Registry
	store   *ckptStore
	m       *jobs.Manager
	srv     *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
	mix     []core.JobSpec
	refs    []string
	seq     atomic.Int64
}

func setupService(cfg config) (fixture, error) {
	f := &serviceFixture{reg: obs.NewRegistry(), mix: serviceMix(cfg.seed)}
	programs := jobs.NewRegistry()
	bench.RegisterPrograms(programs)

	// References: each spec of the mix run directly, off the control plane.
	direct := core.NewRuntime(core.RuntimeOptions{})
	for i, spec := range f.mix {
		spec.Name = fmt.Sprintf("ref-%d", i)
		res, _, err := jobs.RunDirect(context.Background(), direct, programs, spec)
		if err != nil {
			return nil, fmt.Errorf("RunDirect %s: %w", spec.Program, err)
		}
		f.refs = append(f.refs, res)
	}

	dir, err := os.MkdirTemp(cfg.dir, "service-")
	if err != nil {
		return nil, err
	}
	f.dir = dir
	ds, err := checkpoint.NewDirStore(dir)
	if err != nil {
		f.close()
		return nil, err
	}
	f.store = &ckptStore{ds: ds}
	f.rt = core.NewRuntime(core.RuntimeOptions{Obs: f.reg})
	f.m = jobs.NewManager(jobs.Options{
		Runtime: f.rt, Programs: programs, Store: f.store,
		MaxRunning: serviceMaxRunning, Obs: f.reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: jobs.NewServer(f.m, f.reg)}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := 0; i < serviceClients; i++ {
		f.clients = append(f.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	// Warm-up: one job of each program through the whole path.
	ph := newPhase()
	for i := 0; i < 2; i++ {
		f.job(ph, 0, i, nil)
	}
	if ph.failed > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up jobs failed: %s", strings.Join(ph.notes, "; "))
	}
	f.store.take()
	return f, nil
}

func (f *serviceFixture) close() {
	if f.srv != nil {
		f.srv.Close()
		<-f.served
	}
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
	if f.m != nil {
		f.m.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// jobTiming is one job's client-side record.
type jobTiming struct {
	submit, first, complete time.Duration
	lag                     []float64 // SSE arrival minus Subscribe arrival per round, ms
	refused, ok             bool
}

// jobsLog collects job timings from the clients.
type jobsLog struct {
	mu      sync.Mutex
	jobs    []jobTiming
	refused int
}

func (l *jobsLog) add(j jobTiming) {
	l.mu.Lock()
	l.jobs = append(l.jobs, j)
	l.mu.Unlock()
}

// job submits mix[i] as client c and follows it to done. With tr non-nil
// it records the job's spans and the SSE lag behind Manager.Subscribe.
func (f *serviceFixture) job(ph *phase, c, i int, tr *tracer) jobTiming {
	spec := f.mix[i]
	spec.Name = fmt.Sprintf("c%d-%d", c, f.seq.Add(1))
	spec.Tenant = fmt.Sprintf("tenant-%d", c)
	var jt jobTiming
	body, err := json.Marshal(spec)
	if err != nil {
		ph.fail("encoding spec: %v", err)
		return jt
	}
	op, s := tr.id(), tr.now()
	sub := tr.id()
	f.store.parents.Store(spec.Name, [2]int64{op, sub})
	defer f.store.parents.Delete(spec.Name)
	client := f.clients[c]
	t0 := time.Now()
	resp, err := client.Post(f.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		ph.fail("POST %s: %v", spec.Name, err)
		return jt
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	jt.submit = time.Since(t0)
	tr.add(sub, op, op, "jobs.submit", s)
	if resp.StatusCode != http.StatusAccepted {
		ph.fail("POST %s refused: %s", spec.Name, resp.Status)
		jt.refused = true
		return jt
	}

	var managerSeen map[int]time.Time
	var subDone chan struct{}
	if tr != nil {
		_, ch, stop, err := f.m.Subscribe(spec.Name)
		if err == nil {
			managerSeen = map[int]time.Time{}
			subDone = make(chan struct{})
			go func() {
				defer close(subDone)
				for rd := range ch {
					managerSeen[rd.Seq] = time.Now()
				}
			}()
			defer stop()
		}
	}

	stream, ss := tr.id(), tr.now()
	f.store.parents.Store(spec.Name, [2]int64{op, stream})
	sseSeen := map[int]time.Time{}
	st, err := f.follow(client, spec.Name, t0, &jt, sseSeen)
	tr.add(stream, op, op, "jobs.stream", ss)
	tr.add(op, 0, op, "op.job", s)
	if err != nil {
		ph.fail("job %s: %v", spec.Name, err)
		return jt
	}
	switch {
	case st.State != jobs.StateCompleted:
		ph.fail("job %s ended %s: %s", spec.Name, st.State, st.Error)
	case st.Result != f.refs[i]:
		ph.fail("job %s result %q differs from RunDirect %q", spec.Name, st.Result, f.refs[i])
	default:
		jt.ok = true
	}
	if subDone != nil {
		<-subDone
		for seq, at := range sseSeen {
			if m, ok := managerSeen[seq]; ok {
				jt.lag = append(jt.lag, durMs(at.Sub(m)))
			}
		}
	}
	return jt
}

// follow reads the job's SSE stream to its done event and returns the final
// status. It stamps first-round and completion times relative to t0.
func (f *serviceFixture) follow(client *http.Client, name string, t0 time.Time, jt *jobTiming, seen map[int]time.Time) (jobs.Status, error) {
	var st jobs.Status
	resp, err := client.Get(f.base + "/v1/jobs/" + name + "/rounds")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			now := time.Now()
			switch event {
			case "round":
				if jt.first == 0 {
					jt.first = now.Sub(t0)
				}
				var rd jobs.Round
				if err := json.Unmarshal(data, &rd); err != nil {
					return st, fmt.Errorf("round event: %w", err)
				}
				seen[rd.Seq] = now
			case "done":
				jt.complete = now.Sub(t0)
				if err := json.Unmarshal(data, &st); err != nil {
					return st, fmt.Errorf("done event: %w", err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				return st, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("stream ended without a done event")
}

func (f *serviceFixture) measure(ph *phase, deadline time.Time, tr *tracer) error {
	f.store.tr.Store(tr)
	defer f.store.tr.Store(nil)
	waitBefore := histSeries(f.reg, jobs.MetricQueueWait)
	load0 := f.rt.Load()
	var log jobsLog
	var phMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := newPhase()
			for k := 0; time.Now().Before(deadline); k++ {
				// Each client walks the mix from its own offset, so both
				// classes and both programs are in flight together.
				jt := f.job(local, c, (c+k)%len(f.mix), tr)
				local.attempted++
				if jt.refused {
					log.mu.Lock()
					log.refused++
					log.mu.Unlock()
					continue
				}
				log.add(jt)
			}
			phMu.Lock()
			ph.attempted += local.attempted
			ph.failed += local.failed
			ph.notes = append(ph.notes, local.notes...)
			phMu.Unlock()
		}()
	}
	wg.Wait()
	waitAfter := histSeries(f.reg, jobs.MetricQueueWait)
	load1 := f.rt.Load()
	if n := load1.Admitted - load0.Admitted; n > 0 {
		ph.layer["sched.wait_share"] = float64(load1.Waited-load0.Waited) / float64(n)
		ph.layer["sched.wait_us_per_admit"] = float64(load1.WaitNanos-load0.WaitNanos) / 1e3 / float64(n)
	}
	ph.layer["sched.peak_inuse"] = float64(f.rt.Scheduler().PeakInUse)
	saveMs, saveBytes := f.store.take()

	var submit, first, complete, lag []float64
	done := 0
	for _, j := range log.jobs {
		if !j.ok {
			continue
		}
		done++
		submit = append(submit, durMs(j.submit))
		first = append(first, durMs(j.first))
		complete = append(complete, durMs(j.complete))
		lag = append(lag, j.lag...)
	}
	ph.work = float64(done)
	ph.lat = complete
	ph.named["jobs_per_s"] = ph.work / time.Since(ph.start).Seconds()
	ph.named["first_round_p50_ms"] = median(first)
	ph.named["first_round_p99_ms"] = tailOr(ph, "first_round_p99_ms", first, 99)
	ph.named["complete_p50_ms"] = median(complete)
	ph.named["complete_p99_ms"] = tailOr(ph, "complete_p99_ms", complete, 99)
	ph.layer["jobs.submit_p50_ms"] = median(submit)
	ph.layer["jobs.refused"] = float64(log.refused)
	ph.layer["jobs.queue_wait_p50_ms"] = histDeltaQuantile(ph, "jobs.queue_wait_p50_ms", waitBefore, waitAfter, 50) * 1000
	ph.layer["jobs.queue_wait_p99_ms"] = histDeltaQuantile(ph, "jobs.queue_wait_p99_ms", waitBefore, waitAfter, 99) * 1000
	ph.layer["checkpoint.save_p50_ms"] = median(saveMs)
	ph.layer["checkpoint.save_p99_ms"] = tailOr(ph, "checkpoint.save_p99_ms", saveMs, 99)
	ph.layer["checkpoint.bytes_per_save"] = median(saveBytes)
	if done > 0 {
		ph.layer["checkpoint.saves_per_job"] = float64(len(saveMs)) / float64(len(log.jobs))
	}
	if tr != nil {
		ph.layer["jobs.sse_lag_p50_ms"] = median(lag)
		ph.layer["jobs.sse_lag_p99_ms"] = tailOr(ph, "jobs.sse_lag_p99_ms", lag, 99)
	}
	return nil
}

// histSeries returns the first series of a histogram family, or an empty
// one.
func histSeries(reg *obs.Registry, name string) obs.SeriesSnapshot {
	for _, fam := range reg.Snapshot() {
		if fam.Name == name && len(fam.Series) > 0 {
			return fam.Series[0]
		}
	}
	return obs.SeriesSnapshot{}
}

// histDeltaQuantile is the p-th percentile of the observations a histogram
// took between two snapshots, interpolated within its bucket, under the
// same tail rule as percentile.
func histDeltaQuantile(ph *phase, label string, before, after obs.SeriesSnapshot, p float64) float64 {
	n := after.Count - before.Count
	if n == 0 {
		ph.notes = append(ph.notes, label+": no observations")
		return 0
	}
	rank := uint64(p / 100 * float64(n))
	if p > 50 && n-rank < minTail {
		ph.notes = append(ph.notes, label+": "+strconv.FormatUint(n, 10)+" observations, too few for the tail")
		return 0
	}
	target := p / 100 * float64(n)
	var prev float64
	for i := range after.Cumulative {
		cum := float64(after.Cumulative[i])
		if i < len(before.Cumulative) {
			cum -= float64(before.Cumulative[i])
		}
		if cum >= target {
			if i >= len(after.Upper) {
				return after.Upper[len(after.Upper)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = after.Upper[i-1]
			}
			inBucket := cum - prev
			if inBucket <= 0 {
				return after.Upper[i]
			}
			return lo + (after.Upper[i]-lo)*(target-prev)/inBucket
		}
		prev = cum
	}
	return after.Upper[len(after.Upper)-1]
}

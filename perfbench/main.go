// Command perfbench is the repository benchmark. It runs one workload
// through the public APIs of internal/core, internal/remote and
// internal/jobs, checks the workload's outputs, and prints its metrics:
//
//	bash perfbench/run.sh --workload sampling --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics, measured with tracing off. With --trace 1 the run
// measures an untraced half and a traced half, then alternates short
// untraced and traced stretches to measure the tracing overhead: the traced
// half wraps every call into a layer in a span, writes the spans as JSONL
// under .bench_build/perfbench, and the JSON line holds the per-layer
// metrics.
// Lines before the last are a human-readable report. The command exits
// nonzero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed used when --seed is not given.
const defaultSeed = 1

// setupReps is how many times a run builds its fixture; setup_s is the
// median, and the last fixture built is the one measured.
const setupReps = 3

// outDir holds span files and scratch state, relative to the checkout root
// the benchmark runs from.
const outDir = ".bench_build/perfbench"

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports with tracing off. What
// "throughput" and "latency" count differs per workload; see workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer are the metrics a traced run reports. A layer a workload does not
// exercise reports 0 (no calls were made into it).
var perLayer = []metricDef{
	{"core.round_self_p50_us", "us"},
	{"core.round_self_p99_us", "us"},
	{"core.body_share", "ratio"},
	{"core.allocs_per_sample", "count"},
	{"core.alloc_bytes_per_sample", "B"},
	{"core.scored_round_self_p50_us", "us"},
	{"core.scored_round_self_growth", "ratio"},
	{"core.pruned", "count"},
	{"core.panics", "count"},
	{"core.timeouts", "count"},
	{"core.retried", "count"},
	{"core.self_share", "ratio"},
	{"sched.wait_share", "ratio"},
	{"sched.wait_us_per_admit", "us"},
	{"sched.peak_inuse", "count"},
	{"store.float_ns", "ns"},
	{"store.load_ns", "ns"},
	{"store.commit_ns", "ns"},
	{"store.expose_us", "us"},
	{"agg.peak_retained", "count"},
	{"agg.drain_batch_mean", "count"},
	{"remote.begin_round_p50_us", "us"},
	{"remote.end_round_p50_us", "us"},
	{"remote.execute_p50_us", "us"},
	{"remote.execute_p99_us", "us"},
	{"remote.execute_self_p50_us", "us"},
	{"remote.worker_body_p50_us", "us"},
	{"remote.wire_bytes_out_per_sample", "B"},
	{"remote.wire_bytes_in_per_sample", "B"},
	{"remote.wire_writes_per_sample", "count"},
	{"remote.snapshot_full_bytes", "B"},
	{"remote.snapshot_delta_bytes", "B"},
	{"remote.delta_fallbacks", "count"},
	{"remote.affinity_hit_ratio", "ratio"},
	{"remote.self_share", "ratio"},
	{"checkpoint.save_p50_ms", "ms"},
	{"checkpoint.save_p99_ms", "ms"},
	{"checkpoint.bytes_per_save", "B"},
	{"checkpoint.saves_per_job", "count"},
	{"checkpoint.self_share", "ratio"},
	{"jobs.submit_p50_ms", "ms"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.queue_wait_p99_ms", "ms"},
	{"jobs.sse_lag_p50_ms", "ms"},
	{"jobs.sse_lag_p99_ms", "ms"},
	{"jobs.refused", "count"},
	{"jobs.self_share", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
	{"error_rate", "ratio"},
}

// config is what a workload's fixture is built from.
type config struct {
	seed int64
	dir  string // scratch directory inside the checkout
	// bodySpin adds that many iterations of arithmetic to the sampling
	// workload's own sample body: the sensitivity check's known slowdown.
	bodySpin int
}

// fixture is one built workload, ready to measure.
type fixture interface {
	// measure runs the workload until deadline, recording into ph. tr is
	// nil when tracing is off. An error means the run could not go on; a
	// wrong output is counted in ph.failed instead.
	measure(ph *phase, deadline time.Time, tr *tracer) error
	close()
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	setup func(cfg config) (fixture, error)
}

var workloads = []workload{
	{"sampling", setupSampling},
	{"scored", setupScored},
	{"fleet", setupFleet},
	{"service", setupService},
}

// phase accumulates one measured stretch of a run.
type phase struct {
	start, end        time.Time
	attempted, failed int
	work              float64   // units counted by throughput_per_s, for fixtures without passes
	rates             []float64 // per-pass throughput, for fixtures that run passes
	lat               []float64 // latency_p50_ms operations, in ms
	samples           float64   // sampling-process bodies run, for allocs per sample
	named             map[string]float64
	layer             map[string]float64
	notes             []string
}

func newPhase() *phase {
	return &phase{named: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if ph.failed <= 5 {
		ph.notes = append(ph.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

func (ph *phase) elapsed() float64 { return ph.end.Sub(ph.start).Seconds() }

// throughput is the median per-pass rate where the fixture runs passes
// (robust to a pass the machine slowed), else work over wall time.
func (ph *phase) throughput() float64 {
	if len(ph.rates) > 0 {
		return median(ph.rates)
	}
	if ph.elapsed() <= 0 {
		return 0
	}
	return ph.work / ph.elapsed()
}

// runPhase measures fx for d and stamps the phase's wall time and
// allocation counts.
func runPhase(fx fixture, d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ph.start = time.Now()
	err := fx.measure(ph, ph.start.Add(d), tr)
	ph.end = time.Now()
	runtime.ReadMemStats(&m1)
	if ph.samples > 0 {
		ph.layer["core.allocs_per_sample"] = float64(m1.Mallocs-m0.Mallocs) / ph.samples
		ph.layer["core.alloc_bytes_per_sample"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ph.samples
	}
	return ph, err
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sampling, scored, fleet or service")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spin := fs.Int("body-spin", 0, "extra arithmetic per sample in the sampling body (sensitivity check only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, dir: outDir, bodySpin: *spin}

	// Set up several times; the median is setup_s and the last build is
	// measured.
	var setups []float64
	var fx fixture
	for i := 0; i < setupReps; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		var err error
		fx, err = w.setup(cfg)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", w.name, err)
			return 1
		}
	}
	defer fx.close()

	d := time.Duration(*seconds * float64(time.Second))
	var out resultOut
	var report []string
	if *trace == 0 {
		ph, err := runPhase(fx, d, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		rss, err := peakRSSMiB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		vals := map[string]float64{
			"setup_s":          median(setups),
			"peak_rss_mib":     rss,
			"throughput_per_s": ph.throughput(),
			"latency_p50_ms":   median(ph.lat),
		}
		out = result(endToEnd, vals, ph.attempted, ph.failed)
		report = phaseReport(ph)
	} else {
		out, report = tracedRun(fx, w.name, cfg, d)
		if out.Metrics == nil {
			return 1
		}
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d setup_runs_s=%s\n",
		w.name, *seed, *seconds, *trace, floats(setups))
	for _, line := range report {
		fmt.Println("#", line)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := validName(n); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("# %-36s %16.6f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// Tracing overhead is measured by a probe of probePairs short untraced and
// traced stretches in turn, so that drift in machine speed, which on a
// shared machine dwarfs the overhead, hits both sides alike.
const (
	probeShare = 6 // the probe takes 1/probeShare of a traced run
	probePairs = 4
)

// tracedRun measures an untraced half, a traced half and the overhead
// probe, and returns the per-layer metrics. On a measurement error it
// prints the error and returns a result with no metrics.
func tracedRun(fx fixture, name string, cfg config, d time.Duration) (resultOut, []string) {
	probe := d / probeShare
	half := (d - probe) / 2
	plain, err := runPhase(fx, half, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s untraced half: %v\n", name, err)
		return resultOut{}, nil
	}
	tr := newTracer()
	traced, err := runPhase(fx, half, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s traced half: %v\n", name, err)
		return resultOut{}, nil
	}
	spans := tr.snapshot()
	vals := map[string]float64{}
	for k, v := range traced.layer {
		vals[k] = v
	}
	// Allocation counts come from the untraced half, where the wrappers
	// allocate nothing.
	for _, k := range []string{"core.allocs_per_sample", "core.alloc_bytes_per_sample"} {
		if v, ok := plain.layer[k]; ok {
			vals[k] = v
		}
	}
	rows := layerTable(spans)
	for _, r := range rows {
		switch r.layer {
		case "core", "remote", "checkpoint", "jobs":
			vals[r.layer+".self_share"] = r.share
		}
	}
	vals["trace.coverage"] = rootCoverage(spans, int64(traced.start.Sub(tr.epoch)), int64(traced.end.Sub(tr.epoch)))
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	var ratios []float64
	chunk := probe / (2 * probePairs)
	for i := 0; i < probePairs; i++ {
		p, err := runPhase(fx, chunk, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s overhead probe: %v\n", name, err)
			return resultOut{}, nil
		}
		t, err := runPhase(fx, chunk, newTracer())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s overhead probe: %v\n", name, err)
			return resultOut{}, nil
		}
		attempted += p.attempted + t.attempted
		failed += p.failed + t.failed
		if tp := t.throughput(); tp > 0 {
			ratios = append(ratios, p.throughput()/tp-1)
		}
	}
	vals["trace.overhead"] = median(ratios)
	if attempted > 0 {
		vals["error_rate"] = float64(failed) / float64(attempted)
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
	report := append(phaseReport(plain), phaseReport(traced)...)
	report = append(report, fmt.Sprintf("traced half: %d spans -> %s", len(spans), path),
		fmt.Sprintf("overhead probe: untraced/traced throughput - 1 per pair: %s", floats(ratios)))
	report = append(report, strings.Split(strings.TrimRight(formatLayerTable(rows), "\n"), "\n")...)
	if err := writeJSONL(path, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return resultOut{}, nil
	}
	return result(perLayer, vals, attempted, failed), report
}

// result assembles the JSON line: exactly the metrics in defs, 0 for any a
// workload did not measure.
func result(defs []metricDef, vals map[string]float64, attempted, failed int) resultOut {
	out := resultOut{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out
}

// phaseReport renders a phase's workload-specific metrics for humans.
func phaseReport(ph *phase) []string {
	lines := []string{fmt.Sprintf("phase: %.3fs, %d operations, %d failed", ph.elapsed(), ph.attempted, ph.failed)}
	keys := make([]string, 0, len(ph.named))
	for k := range ph.named {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("  %-32s %16.6f", k, ph.named[k]))
	}
	return append(lines, ph.notes...)
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, ",")
}

// durMs, durUs convert a duration to float milliseconds / microseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
func durUs(d time.Duration) float64 { return float64(d) / 1e3 }

// tailOr returns the p-th percentile of xs, or the reason it is refused.
// Refused tails are reported as 0 with the reason in the notes.
func tailOr(ph *phase, label string, xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		ph.notes = append(ph.notes, fmt.Sprintf("%s: %v", label, err))
		return 0
	}
	return v
}

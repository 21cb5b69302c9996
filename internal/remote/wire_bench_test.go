package remote

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// Wire-layer benchmarks. perfBatch, perfTask and muxTrip are shared with
// TestSteadyStateAllocs, which pins the allocation counts of these paths.

func BenchmarkWireTaskEncode(b *testing.B)     { runTaskEncode(b) }
func BenchmarkWireTaskDecode(b *testing.B)     { runTaskDecode(b) }
func BenchmarkWireResultsEncode(b *testing.B)  { runResultsEncode(b) }
func BenchmarkWireResultsDecode(b *testing.B)  { runResultsDecode(b) }
func BenchmarkWireFrameRoundTrip(b *testing.B) { runFrameRoundTrip(b) }
func BenchmarkWireMuxRoundTrip(b *testing.B)   { runMuxRoundTrip(b) }

func BenchmarkDispatchLoopback(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dispatchTail(256); err != nil {
			b.Fatal(err)
		}
	}
}

// perfBatch is a representative result batch: params, mixed-type commits,
// scores — what a worker's writeLoop flushes at steady state.
func perfBatch(n int) []resultMsg {
	batch := make([]resultMsg, n)
	for i := range batch {
		batch[i] = resultMsg{ID: uint64(i + 1), Res: core.ExecResult{
			Params: []core.ParamKV{{Name: "alpha", Value: 0.25}, {Name: "beta", Value: float64(i)}},
			Commits: []core.CommitKV{
				{Name: "y", Value: float64(i) * 1.5},
				{Name: "tag", Value: "blue"},
			},
			Scored: true, Score: float64(i), WorkMilli: 125,
		}}
	}
	return batch
}

var perfTask = taskMsg{ID: 7, Round: 3, Group: 11, Attempt: 1}

func runTaskEncode(b *testing.B) {
	w := newWire(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb := getFrameBuf()
		appendTask(wb, perfTask)
		if err := w.writeBuf(wb); err != nil {
			b.Fatal(err)
		}
		putFrameBuf(wb)
	}
}

func runTaskDecode(b *testing.B) {
	payload := encodeTask(perfTask)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeTask(payload[1:]); err != nil {
			b.Fatal(err)
		}
	}
}

func runResultsEncode(b *testing.B) {
	batch := perfBatch(16)
	w := newWire(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb := getFrameBuf()
		if err := appendResults(wb, batch, nil); err != nil {
			b.Fatal(err)
		}
		if err := w.writeBuf(wb); err != nil {
			b.Fatal(err)
		}
		putFrameBuf(wb)
	}
}

func runResultsDecode(b *testing.B) {
	payload, err := encodeResults(perfBatch(16), nil)
	if err != nil {
		b.Fatal(err)
	}
	var dec decoder
	dec.init()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeResults(payload[1:], nil, &dec); err != nil {
			b.Fatal(err)
		}
	}
}

// runFrameRoundTrip writes a task frame and reads it back through the frame
// layer, the full per-sample wire cost minus the network itself.
func runFrameRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	w := newWire(&buf)
	var rd bytes.Reader
	var fb []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		wb := getFrameBuf()
		appendTask(wb, perfTask)
		if err := w.writeBuf(wb); err != nil {
			b.Fatal(err)
		}
		putFrameBuf(wb)
		rd.Reset(buf.Bytes())
		payload, err := readFrame(&rd, fb)
		if err != nil {
			b.Fatal(err)
		}
		fb = payload
		if _, err := decodeTask(payload[1:]); err != nil {
			b.Fatal(err)
		}
	}
}

// runMuxRoundTrip ships a 1MiB message through chunking and reassembly.
func runMuxRoundTrip(b *testing.B) {
	var mt muxTrip
	mt.init()
	b.SetBytes(int64(len(mt.msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mt.roundTrip(); err != nil {
			b.Fatal(err)
		}
	}
}

// muxTrip writes a 1MiB message through the wire's chunking into an
// in-memory buffer and reassembles it through the frame layer and a fresh
// demux, reusing the buffer, reader and frame buffer across trips.
type muxTrip struct {
	msg []byte
	buf bytes.Buffer
	w   *wire
	rd  bytes.Reader
	fb  []byte
}

func (mt *muxTrip) init() {
	mt.msg = make([]byte, 1<<20)
	for i := range mt.msg {
		mt.msg[i] = byte(i)
	}
	mt.w = newWire(&mt.buf)
}

func (mt *muxTrip) roundTrip() error {
	mt.buf.Reset()
	if err := mt.w.writeMsg(mt.msg); err != nil {
		return err
	}
	mt.rd.Reset(mt.buf.Bytes())
	dmx := newDemux()
	for {
		payload, err := readFrame(&mt.rd, mt.fb)
		if err != nil {
			return err
		}
		mt.fb = payload
		m, pooled, err := dmx.feed(payload)
		if err != nil {
			return err
		}
		if m != nil {
			if len(m) != len(mt.msg) {
				return fmt.Errorf("reassembled %d bytes, want %d", len(m), len(mt.msg))
			}
			if pooled {
				freeBuf(m)
			}
			return nil
		}
	}
}

// dispatchTail runs a single-slot loopback fleet through a synthetic region
// and returns the dispatch (queue wait) and rpc (wire round trip) p99s in
// nanoseconds, read from the same histograms the obs endpoint exports.
func dispatchTail(samples int) (dispatchP99, rpcP99 float64, err error) {
	oreg := obs.NewRegistry()
	ex := NewExecutor(ExecutorOptions{Registry: Builtins(), Obs: oreg})
	defer ex.Close()
	w := NewWorker(WorkerOptions{Registry: Builtins(), Slots: 1, Name: "perf"})
	defer w.Close()
	a, b := net.Pipe()
	go w.ServeConn(a)
	if err := ex.AddConn(b); err != nil {
		return 0, 0, err
	}
	spec, body := SyntheticSpec(samples)
	tuner := core.New(core.Options{MaxPool: 1, Seed: 1, Executor: ex})
	err = tuner.Run(func(p *core.P) error {
		p.Expose(SyntheticServiceKey, 0)
		res, err := p.Region(spec, body)
		if err != nil {
			return err
		}
		if res.Len("f") != samples {
			return fmt.Errorf("%d of %d samples returned", res.Len("f"), samples)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	dispatch := oreg.Histogram(MetricDispatchSeconds, obs.FineDurationBuckets(), "worker", "perf", "transport", "pipe")
	rpc := oreg.Histogram(MetricRPCSeconds, obs.DurationBuckets(), "worker", "perf", "transport", "pipe")
	return dispatch.Quantile(0.99) * 1e9, rpc.Quantile(0.99) * 1e9, nil
}

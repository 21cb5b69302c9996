package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond it) was reported")
	}
	xs = append(xs, 1000)
	v, err := percentile(xs, 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", v)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of 3,1,2 = %v, want 2", m)
	}
	if m, err := percentile([]float64{5}, 50); err != nil || m != 5 {
		t.Fatalf("median of one sample: %v, %v", m, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("median of no samples was reported")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.Region", Start: 0, End: 100},
		// Two overlapping children cover [10, 50); a third covers [60, 70);
		// a fourth sticks out past the parent and counts only to 100.
		{ID: 2, Parent: 1, Name: "bench.body", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "bench.body", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "bench.body", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "bench.body", Start: 95, End: 120},
		// A grandchild is its parent's business, not the region's.
		{ID: 6, Parent: 2, Name: "store.Float", Start: 12, End: 14},
	}
	selfUs, share := regionSelf(spans, "core.Region", "bench")
	if len(selfUs) != 1 || selfUs[0] != 45.0/1e3 || share[0] != 0.55 {
		t.Fatalf("regionSelf = %v, %v; want [0.045], [0.55]", selfUs, share)
	}
	// Layer shares are unions over the root's wall time: core works 45 of
	// its 100 ns; the bench bodies work [10,50), [60,70) and [95,100) of it
	// (the part past the root's end is outside the operation), minus the
	// store call's [12,14).
	shares := map[string]float64{}
	self := map[string]time.Duration{}
	for _, r := range layerTable(spans) {
		shares[r.layer] = r.share
		self[r.layer] = r.self
	}
	// Self time is summed per span: the first body loses the store call's
	// 2 ns, the others keep their whole length.
	if self["core"] != 45 || self["bench"] != 28+30+10+25 || self["store"] != 2 {
		t.Errorf("self times %v, want core 45, bench 93, store 2", self)
	}
	want := map[string]float64{"core": 0.45, "bench": 0.53, "store": 0.02}
	for layer, w := range want {
		if math.Abs(shares[layer]-w) > 1e-9 {
			t.Errorf("%s share %v, want %v", layer, shares[layer], w)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, good := range []string{"setup_s", "core.round_self_p50_us", "c4.5-x", "9lives"} {
		if err := validName(good); err != nil {
			t.Errorf("%q rejected: %v", good, err)
		}
	}
	for _, bad := range []string{"", ".hidden", "has space", "p99/ms", "ümlaut", strings.Repeat("a", 65)} {
		if validName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := validName(d.name); err != nil {
			t.Error(err)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code's metric and
// workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: code %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: code %s, BENCHMARK.json %s", i, w.name, bj.Workloads[i].Name)
		}
	}
}

// TestWrongReferenceFails: a reference that differs from the output in any
// checked field must fail the output check.
func TestWrongReferenceFails(t *testing.T) {
	want := []roundDigest{{n: 256, agg: 0.5, best: 1, values: 7}}
	if d, _ := compareDigests(want, want, true); d != "" {
		t.Fatalf("identical digests rejected: %s", d)
	}
	wrong := []roundDigest{
		{n: 256, agg: 0.25, best: 1, values: 7},
		{n: 255, agg: 0.5, best: 1, values: 7},
		{n: 256, failed: 1, agg: 0.5, best: 1, values: 7},
		{n: 256, agg: 0.5, best: 2, values: 7},
		{n: 256, agg: 0.5, best: 1, values: 8},
	}
	for _, w := range wrong {
		if d, _ := compareDigests([]roundDigest{w}, want, false); d == "" {
			t.Errorf("wrong digest %v passed the output check", w)
		}
	}
	if d, _ := compareDigests(nil, want, false); d == "" {
		t.Error("a missing round passed the output check")
	}
	near := []roundDigest{{n: 256, agg: math.Nextafter(0.5, 1), best: 1, values: 7}}
	if d, inexact := compareDigests(near, want, false); d != "" || inexact != 1 {
		t.Fatalf("a last-bit Avg difference: diff %q, inexact %d; want it tolerated and counted", d, inexact)
	}
	if d, _ := compareDigests(near, want, true); d == "" {
		t.Fatal("a last-bit difference passed an exact check")
	}
}

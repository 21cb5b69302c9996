package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// postSpec submits spec as JSON and returns the response.
func postSpec(t *testing.T, base string, spec core.JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainClose(t *testing.T, resp *http.Response) {
	t.Helper()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestServerStatusCodes drives every typed refusal through real HTTP
// requests and checks each maps to its own status code.
func TestServerStatusCodes(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Options{
		Runtime:    core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs:   testRegistry(release),
		MaxRunning: 1,
		MaxQueued:  1,
		Quotas:     map[string]TenantQuota{"capped": {RatePerSec: 0.001, Burst: 1}},
	})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m, nil))
	defer srv.Close()

	// Fill the running slot and the one queue slot.
	for _, name := range []string{"running", "queued"} {
		resp := postSpec(t, srv.URL, core.JobSpec{Name: name, Program: "wait", Tenant: "a"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, want 202", name, resp.StatusCode)
		}
		drainClose(t, resp)
	}

	tests := []struct {
		name string
		spec core.JobSpec
		want int
	}{
		{"queue full", core.JobSpec{Name: "overflow", Program: "wait", Tenant: "a"}, http.StatusServiceUnavailable},
		{"duplicate", core.JobSpec{Name: "running", Program: "wait", Tenant: "a"}, http.StatusConflict},
		{"unknown program", core.JobSpec{Name: "mystery", Program: "nope"}, http.StatusBadRequest},
		{"invalid spec", core.JobSpec{Name: "", Program: "wait"}, http.StatusBadRequest},
	}
	for _, tc := range tests {
		resp := postSpec(t, srv.URL, tc.spec)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: missing Retry-After header on 503", tc.name)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
			t.Errorf("%s: refusal body not a JSON error envelope (err=%v)", tc.name, err)
		}
		resp.Body.Close()
	}

	// Rate quota: the capped tenant's single burst token goes to the first
	// submission (itself refused — the queue is full — but still charged);
	// the second trips the rate limit, which Submit checks before queue
	// capacity, so it maps to 429 rather than 503.
	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "capped-1", Program: "wait", Tenant: "capped"}))
	resp := postSpec(t, srv.URL, core.JobSpec{Name: "capped-2", Program: "wait", Tenant: "capped"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("quota exceeded: status %d, want 429", resp.StatusCode)
	}
	drainClose(t, resp)

	// Unknown job and malformed JSON.
	resp, err := http.Get(srv.URL + "/v1/jobs/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	drainClose(t, resp)
	for _, body := range []string{
		`{"name": `,
		// A second JSON value after the spec is refused, not ignored.
		`{"name":"trailing","program":"wait","seed":1}{"garbage":true}`,
	} {
		resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed JSON %q: status %d, want 400", body, resp.StatusCode)
		}
		drainClose(t, resp)
	}
	if _, err := m.Get("trailing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("spec with trailing data was queued (Get: %v)", err)
	}
}

// TestServerSubmitStreamInspect is the happy path over HTTP: submit, stream
// every round over SSE to completion, inspect, list — and the final result
// matches a direct run byte for byte.
func TestServerSubmitStreamInspect(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	m := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: testRegistry(nil),
	})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m, nil))
	defer srv.Close()

	spec := core.JobSpec{Name: "stream-me", Program: "tune", Seed: 99}
	resp := postSpec(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	var submitted Status
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	resp.Body.Close()
	if submitted.Spec.Name != "stream-me" {
		t.Fatalf("submit echoed spec name %q", submitted.Spec.Name)
	}

	// Stream rounds until the done event.
	resp, err := http.Get(srv.URL + "/v1/jobs/stream-me/rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("rounds Content-Type = %q", ct)
	}
	var (
		rounds []Round
		final  Status
		done   bool
	)
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "round":
				var rd Round
				if err := json.Unmarshal([]byte(data), &rd); err != nil {
					t.Fatalf("round event data %q: %v", data, err)
				}
				rounds = append(rounds, rd)
			case "done":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("done event data %q: %v", data, err)
				}
				done = true
			}
		}
		if done {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if len(rounds) != 3 {
		t.Fatalf("streamed %d rounds, want 3", len(rounds))
	}
	for i, rd := range rounds {
		if rd.Seq != i+1 || rd.Region != "svc" {
			t.Fatalf("round %d = %+v, want seq %d region svc", i, rd, i+1)
		}
	}
	if final.State != StateCompleted {
		t.Fatalf("done status state = %q, want completed", final.State)
	}

	// HTTP result must be byte-identical to the direct path at the same seed.
	want, _, err := RunDirect(context.Background(),
		core.NewRuntime(core.RuntimeOptions{MaxPool: 4}), testRegistry(nil), spec)
	if err != nil {
		t.Fatalf("RunDirect: %v", err)
	}
	if final.Result != want {
		t.Fatalf("HTTP result diverges from direct run:\n got %q\nwant %q", final.Result, want)
	}

	// Inspect and list agree.
	resp, err = http.Get(srv.URL + "/v1/jobs/stream-me")
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateCompleted || got.Result != want {
		t.Fatalf("GET job = %+v, want completed with direct-run result", got)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Spec.Name != "stream-me" {
		t.Fatalf("list = %+v, want the one submitted job", list)
	}

	// Health endpoint.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	drainClose(t, resp)
}

// TestServerCancelRunning cancels a running job over HTTP and sees the
// cancelled state reflected.
func TestServerCancelRunning(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: testRegistry(release),
	})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m, nil))
	defer srv.Close()

	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "victim", Program: "wait"}))
	waitCond(t, "victim running", func() bool {
		st, err := m.Get("victim")
		return err == nil && st.State == StateRunning
	})
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/victim", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", resp.StatusCode)
	}
	drainClose(t, resp)
	waitCond(t, "victim cancelled", func() bool {
		st, err := m.Get("victim")
		return err == nil && st.State == StateCancelled
	})
}

// TestJobsMetricsExposition checks the jobs metric families reach the
// Prometheus endpoint: per-class queue gauges, the state counter, and the
// admission-wait histogram.
func TestJobsMetricsExposition(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	oreg := obs.NewRegistry()
	release := make(chan struct{})
	m := NewManager(Options{
		Runtime:    core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs:   testRegistry(release),
		MaxRunning: 1,
		Obs:        oreg,
	})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m, oreg))
	defer srv.Close()

	// One running, one queued per class behind it.
	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "hold", Program: "wait"}))
	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "q-high", Program: "tune", Class: core.PriorityHigh}))
	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "q-low", Program: "tune", Class: core.PriorityLow}))
	close(release)
	waitCond(t, "all jobs completed", func() bool {
		for _, st := range m.List() {
			if !st.State.Terminal() {
				return false
			}
		}
		return true
	})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		MetricJobsQueued + `{class="high"}`,
		MetricJobsQueued + `{class="low"}`,
		MetricJobsState + `{state="queued"}`,
		MetricJobsState + `{state="running"}`,
		MetricJobsState + `{state="completed"}`,
		MetricQueueWait + "_bucket",
		MetricQueueWait + "_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The completed-state counter should have retired all three jobs.
	if !strings.Contains(text, fmt.Sprintf(`%s{state="completed"} 3`, MetricJobsState)) {
		t.Errorf("expected 3 completed jobs in exposition:\n%s", text)
	}
}

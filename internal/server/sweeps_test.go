package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ppatc/internal/dse"
)

// smokeSweep is the smallest interesting sweep: both systems on the
// cheapest kernel, 2 points.
const smokeSweep = `{"name": "smoke", "axes": {"workload": ["huff"]}}`

func newSweepServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// waitSweep polls a job until it reaches a terminal state.
func waitSweep(t *testing.T, ts *httptest.Server, id string) sweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, ts, "/v1/sweeps/"+id)
		var st sweepStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad status body %s: %v", body, err)
		}
		if sweepTerminal(st.Status) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return sweepStatus{}
}

// TestSweepLifecycle walks the whole async API: POST → poll → stream
// NDJSON → analyses → metrics.
func TestSweepLifecycle(t *testing.T) {
	srv, ts := newSweepServer(t, quietConfig())

	resp, body := post(t, ts, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d %s", resp.StatusCode, body)
	}
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 2 {
		t.Fatalf("unexpected job envelope: %+v", st)
	}

	final := waitSweep(t, ts, st.ID)
	if final.Status != SweepDone || final.Completed != 2 {
		t.Fatalf("final status %+v", final)
	}

	// Results stream: 2 NDJSON lines, indices in order.
	_, raw := get(t, ts, "/v1/sweeps/"+st.ID+"/results")
	results, err := dse.ReadNDJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("results stream: %v (%s)", err, raw)
	}
	if len(results) != 2 || results[0].Index != 0 || results[1].Index != 1 {
		t.Fatalf("results %+v", results)
	}
	for _, r := range results {
		if !r.Feasible || r.TCG <= 0 {
			t.Fatalf("empty result %+v", r)
		}
	}

	// A second stream of a done job replays byte-identically.
	_, raw2 := get(t, ts, "/v1/sweeps/"+st.ID+"/results")
	if !bytes.Equal(raw, raw2) {
		t.Error("replayed results differ")
	}

	// Analyses of the finished sweep.
	resp, body = get(t, ts, "/v1/sweeps/"+st.ID+"/frontier")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontier: %d %s", resp.StatusCode, body)
	}
	var analyses struct {
		Frontier []dse.Result `json:"frontier"`
	}
	if err := json.Unmarshal(body, &analyses); err != nil {
		t.Fatal(err)
	}
	if len(analyses.Frontier) == 0 {
		t.Error("empty frontier")
	}

	// Idempotent POST: the same spec maps to the same (done) job.
	resp, body = post(t, ts, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-POST: %d %s", resp.StatusCode, body)
	}
	var again sweepStatus
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID || again.Status != SweepDone {
		t.Fatalf("re-POST landed on %+v, want done job %s", again, st.ID)
	}

	// The job shows up in the listing and in /metrics.
	_, body = get(t, ts, "/v1/sweeps")
	if !strings.Contains(string(body), st.ID) {
		t.Errorf("job %s missing from listing %s", st.ID, body)
	}
	if got := srv.Metrics().SweepPoints.Load(); got != 2 {
		t.Errorf("sweep points counter = %d, want 2", got)
	}
	_, body = get(t, ts, "/metrics")
	for _, want := range []string{"ppatcd_sweep_points_total 2", `ppatcd_sweep_jobs_total{status="done"} 1`, "ppatcd_sweep_queue_depth"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSweepFrontierBuiltAtFinish checks the analysis bundle is built
// once, when the job finishes: a GET serves those bytes and does no
// analysis work, so changing the job's results afterwards changes
// nothing it returns.
func TestSweepFrontierBuiltAtFinish(t *testing.T) {
	srv, ts := newSweepServer(t, quietConfig())
	_, body := post(t, ts, "/v1/sweeps", smokeSweep)
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if got := waitSweep(t, ts, st.ID); got.Status != SweepDone {
		t.Fatalf("sweep ended %q: %s", got.Status, got.Error)
	}
	j := srv.sweeps.get(st.ID)
	j.mu.Lock()
	built, results := j.analyses, j.results
	j.results = nil
	j.mu.Unlock()
	if len(built) == 0 {
		t.Fatal("done job has no analysis bundle")
	}
	want, err := encodeAnalyses(j.plan.Spec.Objectives, results)
	if err != nil || !bytes.Equal(built, want) {
		t.Fatalf("bundle built at finish differs from the analyses of its results (err %v)", err)
	}
	for i := 0; i < 2; i++ {
		resp, got := get(t, ts, "/v1/sweeps/"+st.ID+"/frontier")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("frontier: %d %q %s", resp.StatusCode, resp.Header.Get("Content-Type"), got)
		}
		if !bytes.Equal(got, built) {
			t.Fatalf("GET %d served %s, want the bundle built at finish", i, got)
		}
	}
}

// TestSweepFrontierNonFinite checks a done sweep whose frontier cannot
// be computed answers 422 with the reason, not a frontier holding the
// NaN point.
func TestSweepFrontierNonFinite(t *testing.T) {
	srv, ts := newSweepServer(t, quietConfig())
	spec, err := dse.ParseSpec(strings.NewReader(smokeSweep))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dse.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	j := &sweepJob{id: "nonfinite", plan: plan, status: SweepRunning, notify: make(chan struct{}), created: time.Now()}
	j.results = []dse.Result{
		{Index: 0, System: "si", Feasible: true, ExecTimeS: 1, TCG: 2},
		{Index: 1, System: "m3d", Feasible: true, ExecTimeS: 1, TCG: math.NaN()},
	}
	srv.sweeps.mu.Lock()
	srv.sweeps.jobs[j.id] = j
	srv.sweeps.order = append(srv.sweeps.order, j.id)
	srv.sweeps.mu.Unlock()
	srv.finishSweep(j, SweepDone, nil, time.Now())

	resp, body := get(t, ts, "/v1/sweeps/"+j.id+"/frontier")
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "non-finite") {
		t.Fatalf("frontier over a NaN objective: %d %s, want 422 non-finite", resp.StatusCode, body)
	}
}

// TestSweepRestartResume: a daemon restart (new Server, same store dir)
// resumes a sweep from the stored points without re-evaluating.
func TestSweepRestartResume(t *testing.T) {
	cfg := quietConfig()
	cfg.StoreDir = t.TempDir()

	srv1 := New(cfg)
	ts1 := httptest.NewServer(srv1.Handler())
	resp, body := post(t, ts1, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitSweep(t, ts1, st.ID)
	if got := srv1.Metrics().SweepPoints.Load(); got != 2 {
		t.Fatalf("first daemon evaluated %d points, want 2", got)
	}
	ts1.Close()
	srv1.Close()

	// "Restart": a fresh server over the same store directory.
	srv2, ts2 := newSweepServer(t, cfg)
	resp, body = post(t, ts2, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("re-POST after restart: %d %s", resp.StatusCode, body)
	}
	final := waitSweep(t, ts2, st.ID)
	if final.Status != SweepDone || final.Completed != 2 {
		t.Fatalf("resumed job: %+v", final)
	}
	if final.Resumed != 2 {
		t.Errorf("resumed %d points from the store, want 2", final.Resumed)
	}
	if got := srv2.Metrics().SweepPoints.Load(); got != 0 {
		t.Errorf("restarted daemon re-evaluated %d points, want 0", got)
	}
}

// TestSweepCancelQueued: DELETE on a queued job cancels it before it
// runs.
func TestSweepCancelQueued(t *testing.T) {
	// No runners pick jobs up: SweepRunners=1 but the runner is starved
	// by pointing the queue at a job that never finishes is fragile;
	// instead cancel in the queued window by stopping the runner pool —
	// simplest deterministic route: a server whose base context is
	// already cancelled leaves every job queued.
	cfg := quietConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := New(cfg)
	srv.cancel() // runners exit; jobs stay queued
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var cancelled sweepStatus
	if err := json.Unmarshal(b, &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.Status != SweepCancelled {
		t.Fatalf("status after DELETE = %q, want cancelled", cancelled.Status)
	}
}

// TestSweepValidation: bad specs and unknown jobs map to 4xx.
func TestSweepValidation(t *testing.T) {
	_, ts := newSweepServer(t, quietConfig())
	resp, _ := post(t, ts, "/v1/sweeps", `{"axes": {"system": ["vacuum-tube"]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown system: %d, want 400", resp.StatusCode)
	}
	resp, _ = get(t, ts, "/v1/sweeps/no-such-job")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	cfg := quietConfig()
	cfg.SweepMaxPoints = 1
	_, ts2 := newSweepServer(t, cfg)
	resp, body := post(t, ts2, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cap is 1") {
		t.Errorf("oversized sweep: %d %s, want 400 with cap message", resp.StatusCode, body)
	}
}

// TestSweepRejectsOversizedSpecs: specs that expand past dse.MaxPlanPoints
// get a 400 from POST /v1/sweeps before anything large is allocated, and
// the daemon keeps serving. Before the bound, the first panicked and the
// second killed the process with an unrecoverable out-of-memory error.
func TestSweepRejectsOversizedSpecs(t *testing.T) {
	_, ts := newSweepServer(t, quietConfig())
	for _, spec := range []string{
		`{"axes": {"clock_mhz": {"linspace": {"lo": 100, "hi": 500, "n": 100000}},
			"lifetime_months": {"linspace": {"lo": 1, "hi": 90, "n": 100000}},
			"m3d_embodied_scale": {"linspace": {"lo": 0.5, "hi": 2, "n": 100000}},
			"ci_use_scale": {"linspace": {"lo": 0.1, "hi": 2, "n": 100000}}}}`,
		`{"samples": 200000000, "axes": {"lifetime_months": {"dist": {"kind": "uniform", "lo": 1, "hi": 90}}}}`,
	} {
		resp, body := post(t, ts, "/v1/sweeps", spec)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), fmt.Sprint(dse.MaxPlanPoints)) {
			t.Errorf("oversized spec: %d %s, want 400 naming the cap", resp.StatusCode, body)
		}
	}
	if resp, body := post(t, ts, "/v1/sweeps", smokeSweep); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("daemon stopped serving sweeps: %d %s", resp.StatusCode, body)
	}
}

// TestSweepSizedBeforeExpand pins the order of the server's checks: a
// spec within dse.MaxPlanPoints but over SweepMaxPoints is rejected from
// its size alone. This 2^20-point spec used to be expanded in full
// (about 250 MB allocated) before the cap turned it away.
func TestSweepSizedBeforeExpand(t *testing.T) {
	_, ts := newSweepServer(t, quietConfig())
	const spec = `{"samples": 524288, "axes": {"system": ["si", "m3d"],
		"lifetime_months": {"dist": {"kind": "uniform", "lo": 1, "hi": 90}},
		"ci_use_scale": {"dist": {"kind": "uniform", "lo": 0.5, "hi": 2}}}}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body := post(t, ts, "/v1/sweeps", spec)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cap is 100000") {
		t.Errorf("oversized spec: %d %s, want 400 naming the 100000 cap", resp.StatusCode, body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("rejecting the spec allocated %d bytes", alloc)
	}
	if resp, body := post(t, ts, "/v1/sweeps", smokeSweep); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("daemon stopped serving sweeps: %d %s", resp.StatusCode, body)
	}
}

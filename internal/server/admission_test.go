package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ppatc/internal/embench"
	"ppatc/internal/obs/flight"
)

// TestPoolClassPriority pins the scheduler's strict priority: when the
// single worker frees up with both classes queued, the interactive job
// runs before bulk jobs that were queued earlier.
func TestPoolClassPriority(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	go p.DoClassMeasured(context.Background(), ClassBulk, func() { close(started); <-block })
	<-started // the single worker is now busy

	var mu sync.Mutex
	var order []Class
	record := func(c Class) { mu.Lock(); order = append(order, c); mu.Unlock() }
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.DoClassMeasured(context.Background(), ClassBulk, func() { record(ClassBulk) }); err != nil {
				t.Errorf("bulk job: %v", err)
			}
		}()
	}
	for i := 0; p.QueueDepthClass(ClassBulk) < 3 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.DoClassMeasured(context.Background(), ClassInteractive, func() { record(ClassInteractive) }); err != nil {
			t.Errorf("interactive job: %v", err)
		}
	}()
	for i := 0; p.QueueDepthClass(ClassInteractive) < 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	close(block)
	wg.Wait()
	if len(order) != 4 {
		t.Fatalf("ran %d jobs, want 4", len(order))
	}
	if order[0] != ClassInteractive {
		t.Fatalf("first job after the blocker was %v, want interactive ahead of %d queued bulk jobs", order[0], 3)
	}
}

// TestPoolReservedInteractiveWorker pins the reservation: with two
// workers, bulk work can occupy at most one of them, so an interactive
// job admitted while bulk jobs block never waits behind them.
func TestPoolReservedInteractiveWorker(t *testing.T) {
	p := NewPool(2, 8)
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go p.DoClassMeasured(context.Background(), ClassBulk, func() {
			started <- struct{}{}
			<-block
		})
	}
	<-started // one bulk job holds the unreserved worker; the second queues

	done := make(chan error, 1)
	go func() {
		_, err := p.DoClassMeasured(context.Background(), ClassInteractive, func() {})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interactive job: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interactive job starved behind blocked bulk work; the reserved worker is not serving")
	}
	close(block)
}

// TestSplitFanOutZeroDenominator pins the admission-control bugfix: a
// fan-out whose items recorded no stage time (an all-hit batch inside
// clock resolution) must attribute the full wall time to "other", not
// divide by zero and poison every stage.
func TestSplitFanOutZeroDenominator(t *testing.T) {
	items := make([]flight.Attribution, 3) // all zero stage times
	bd := splitFanOut(items, 1234)
	if bd.OtherNS != 1234 {
		t.Fatalf("zero-denominator split attributed %d ns to other, want the full 1234 (breakdown %+v)", bd.OtherNS, bd)
	}
	if got := bd.QueueWaitNS + bd.CacheLookupNS + bd.ComputeNS + bd.EncodeNS + bd.StoreWriteNS; got != 0 {
		t.Fatalf("zero-denominator split put %d ns into named stages: %+v", got, bd)
	}
	if bd := splitFanOut(items, 0); bd != (flight.Breakdown{}) {
		t.Fatalf("zero-wall split should attribute nothing, got %+v", bd)
	}
	// The split must re-add to the wall clock exactly, truncation included.
	items[0].ComputeNS = 7777
	items[1].QueueWaitNS = 1111
	items[2].StoreWriteNS = 3
	bd = splitFanOut(items, 5000)
	if sum := bd.QueueWaitNS + bd.CacheLookupNS + bd.ComputeNS + bd.EncodeNS + bd.StoreWriteNS + bd.OtherNS; sum != 5000 {
		t.Fatalf("split sums to %d, want the 5000 ns wall clock: %+v", sum, bd)
	}
}

// TestAdmissionClassInFlightDump drives the three admission shapes over
// a live server and asserts the flight dump labels them: cold 8-miss
// batches are bulk, single evaluations and small batches interactive,
// and every event — the all-hit replay included — keeps the partition
// invariant.
func TestAdmissionClassInFlightDump(t *testing.T) {
	srv, ts := newTestServer(t)

	// A cold batch above the interactive-miss threshold: bulk.
	items := make([]string, 0, 8)
	for _, wl := range []string{"crc32", "edn", "sieve", "strsearch"} {
		items = append(items, fmt.Sprintf(`{"system":"si","workload":%q}`, wl))
		items = append(items, fmt.Sprintf(`{"system":"m3d","workload":%q}`, wl))
	}
	coldBatch := `{"items":[` + strings.Join(items, ",") + `]}`
	if resp, b := post(t, ts, "/v1/batch", coldBatch); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold batch: %d %s", resp.StatusCode, b)
	}
	// The same batch again: all hits, no fan-out, no admission class.
	if resp, b := post(t, ts, "/v1/batch", coldBatch); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm batch: %d %s", resp.StatusCode, b)
	}
	// A single evaluation: interactive by endpoint.
	if resp, b := post(t, ts, "/v1/evaluate", `{"system":"si","workload":"huff"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d %s", resp.StatusCode, b)
	}
	// A two-miss batch: within the threshold, interactive.
	smallBatch := `{"items":[{"system":"si","workload":"matmult-int"},{"system":"m3d","workload":"matmult-int"}]}`
	if resp, b := post(t, ts, "/v1/batch", smallBatch); resp.StatusCode != http.StatusOK {
		t.Fatalf("small batch: %d %s", resp.StatusCode, b)
	}

	resp, body := get(t, ts, "/debug/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight dump status %d", resp.StatusCode)
	}
	evs := decodeFlightDump(t, body)
	if len(evs) != 4 {
		t.Fatalf("flight dump has %d events, want 4:\n%s", len(evs), body)
	}
	for _, e := range evs {
		if err := e.CheckTotal(0.01); err != nil {
			t.Fatalf("stage sum cross-check failed: %v (event %+v)", err, e)
		}
	}
	if got := evs[0].AdmissionClass; got != "bulk" {
		t.Errorf("cold 8-miss batch admission_class %q, want bulk", got)
	}
	if got := evs[1].AdmissionClass; got != "" {
		t.Errorf("all-hit batch admission_class %q, want empty (never reached the pool)", got)
	}
	if evs[1].Disposition != "HIT" {
		t.Errorf("all-hit batch disposition %q, want HIT", evs[1].Disposition)
	}
	if got := evs[2].AdmissionClass; got != "interactive" {
		t.Errorf("evaluate admission_class %q, want interactive", got)
	}
	if got := evs[3].AdmissionClass; got != "interactive" {
		t.Errorf("2-miss batch admission_class %q, want interactive", got)
	}

	// The per-class queue-wait surface saw both classes.
	if n := srv.Metrics().QueueWaitCount("bulk"); n != 8 {
		t.Errorf("bulk queue-wait observations %d, want 8 (one per cold batch item)", n)
	}
	if n := srv.Metrics().QueueWaitCount("interactive"); n < 3 {
		t.Errorf("interactive queue-wait observations %d, want >= 3", n)
	}
}

// TestInteractiveMissOvertakesColdBatch is the admission contract over a
// live server: while a cold bulk batch saturates a two-worker pool, one
// /v1/evaluate miss on a grid the batch never touches is admitted as
// interactive, waits in the queue for less than one item's compute time,
// and answers long before the batch would finish.
func TestInteractiveMissOvertakesColdBatch(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 2
	srv, ts := newSweepServer(t, cfg)

	// 2 systems × 8 workloads × 3 grids: 48 distinct cold tuples, three
	// chunks of bulk work run one item at a time by the unreserved worker.
	var items []string
	for _, grid := range []string{"US", "Coal", "Solar"} {
		for _, wl := range embench.Workloads() {
			for _, sys := range []string{"si", "m3d"} {
				items = append(items, fmt.Sprintf(`{"system":%q,"workload":%q,"grid":%q}`, sys, wl.Name, grid))
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch",
		strings.NewReader(`{"items":[`+strings.Join(items, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	// Saturated: one bulk item runs and the next one waits in the queue.
	for i := 0; srv.pool.QueueDepthClass(ClassBulk) < 1; i++ {
		if i == 5000 {
			t.Fatal("the cold batch never queued bulk work")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := post(t, ts, "/v1/evaluate", `{"system":"si","workload":"crc32","grid":"Taiwan"}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("evaluate: %d %s %s, want 200 MISS", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	select {
	case <-batchDone:
		t.Fatal("the batch finished before the interactive evaluate; nothing was overtaken")
	default:
	}
	cancel()
	<-batchDone

	_, body = get(t, ts, "/debug/flight")
	var ev flight.Event
	for _, e := range decodeFlightDump(t, body) {
		if e.Endpoint == "evaluate" {
			ev = e
		}
	}
	if ev.Endpoint == "" {
		t.Fatalf("no evaluate event in the flight dump:\n%s", body)
	}
	if ev.AdmissionClass != "interactive" {
		t.Errorf("evaluate admission_class %q, want interactive", ev.AdmissionClass)
	}
	// The evaluate's own compute is one batch item's worth of pipeline
	// (crc32 on si is in the batch, on other grids).
	if ev.QueueWaitNS >= ev.ComputeNS {
		t.Errorf("evaluate waited %d ns in the queue, not below one item's compute time (%d ns)", ev.QueueWaitNS, ev.ComputeNS)
	}
}

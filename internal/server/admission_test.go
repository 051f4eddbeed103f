package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ppatc/internal/embench"
	"ppatc/internal/obs/flight"
)

// TestInteractiveMissOvertakesColdBatch pins the single-queue contract
// over a live server: a cold batch computes its misses one at a time,
// so on a two-worker pool it never holds more than one worker, and a
// /v1/evaluate miss on a grid the batch never touches takes the free
// worker at once — its queue wait stays below its own compute time.
func TestInteractiveMissOvertakesColdBatch(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 2
	srv, ts := newSweepServer(t, cfg)

	// 2 systems × 8 workloads × 3 grids: 48 distinct cold tuples.
	var items []string
	for _, grid := range []string{"US", "Coal", "Solar"} {
		for _, wl := range embench.Workloads() {
			for _, sys := range []string{"si", "m3d"} {
				items = append(items, fmt.Sprintf(`{"system":%q,"workload":%q,"grid":%q}`, sys, wl.Name, grid))
			}
		}
	}
	type result struct {
		status int
		body   []byte
	}
	batchDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
			strings.NewReader(`{"items":[`+strings.Join(items, ",")+`]}`))
		if err != nil {
			batchDone <- result{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		batchDone <- result{resp.StatusCode, body}
	}()

	// held is every pool job queued or running; while only the batch is
	// in flight, all of them are the batch's.
	held := func() int64 { return srv.pool.QueueDepth() + srv.pool.busy.Load() }
	var maxHeld int64
	sample := func() {
		if h := held(); h > maxHeld {
			maxHeld = h
		}
	}
	for i := 0; held() < 1; i++ {
		if i == 5000 {
			t.Fatal("the cold batch never reached the pool")
		}
		time.Sleep(time.Millisecond)
	}
	sample()

	// The alphabetically last workload is the batch's last US pair, so
	// its stages are still cold when the evaluate arrives.
	wls := embench.Workloads()
	resp, body := post(t, ts, "/v1/evaluate",
		fmt.Sprintf(`{"system":"si","workload":%q,"grid":"Taiwan"}`, wls[len(wls)-1].Name))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("evaluate: %d %s %s, want 200 MISS", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}

	var batch result
	for waiting := true; waiting; {
		select {
		case batch = <-batchDone:
			waiting = false
		default:
			sample()
			time.Sleep(100 * time.Microsecond)
		}
	}
	if batch.status != http.StatusOK {
		t.Fatalf("batch: %d %s", batch.status, batch.body)
	}
	var out batchResponse
	if err := json.Unmarshal(batch.body, &out); err != nil {
		t.Fatalf("batch body: %v", err)
	}
	for _, it := range out.Items {
		if it.Error != "" || it.Cache != "MISS" {
			t.Fatalf("batch item %d: cache %q error %q, want a MISS", it.Index, it.Cache, it.Error)
		}
	}
	if maxHeld > 1 {
		t.Errorf("the cold batch held %d pool jobs at once, want at most 1", maxHeld)
	}

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
	if ev.QueueWaitNS >= ev.ComputeNS {
		t.Errorf("evaluate waited %d ns in the queue, not below its own compute time (%d ns)", ev.QueueWaitNS, ev.ComputeNS)
	}
}

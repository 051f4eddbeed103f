package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
)

// TestServerMemoIdentityAndBound drives every computing endpoint over
// the full bundled universe (2 systems × 8 workloads × 4 grids) and pins
// the daemon memo's two promises. Identity: every evaluate body, and
// every batch item, is byte-identical to core.EvaluateContext +
// WriteJSONOne without a memo. Boundedness: each stage ran exactly once
// per distinct input (8 workloads, 2 designs, 2 design×clock pairs, 2
// floorplans, 2 designs × 4 fab grids), and /metrics says so.
func TestServerMemoIdentityAndBound(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 2
	cfg.CacheEntries = 256
	srv, ts := newSweepServer(t, cfg)

	type tuple struct {
		sys  core.SystemDesign
		wl   embench.Workload
		grid carbon.Grid
	}
	var tuples []tuple
	for _, grid := range carbon.Grids() {
		for _, wl := range embench.Workloads() {
			for _, sys := range core.Systems() {
				tuples = append(tuples, tuple{sys, wl, grid})
			}
		}
	}
	if len(tuples) != 64 {
		t.Fatalf("universe has %d tuples, want 64", len(tuples))
	}

	// Memo-free reference bodies, computed in parallel.
	want := make([][]byte, len(tuples))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				tp := tuples[i]
				res, err := core.EvaluateContext(context.Background(), tp.sys, tp.wl, tp.grid)
				if err != nil {
					t.Errorf("reference %s/%s/%s: %v", tp.sys.Name, tp.wl.Name, tp.grid.Name, err)
					continue
				}
				var buf bytes.Buffer
				if err := core.WriteJSONOne(&buf, res); err != nil {
					t.Errorf("reference encode: %v", err)
				}
				want[i] = buf.Bytes()
			}
		}()
	}
	for i := range tuples {
		next <- i
	}
	close(next)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	evaluate := func(tp tuple) (*http.Response, []byte) {
		return post(t, ts, "/v1/evaluate",
			fmt.Sprintf(`{"system":%q,"workload":%q,"grid":%q}`, tp.sys.Name, tp.wl.Name, tp.grid.Name))
	}
	// The first grid's 16 tuples computed by /v1/evaluate ...
	for i, tp := range tuples[:16] {
		resp, body := evaluate(tp)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("evaluate %d: %d %s, want 200 MISS", i, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("evaluate %s/%s/%s through the memo differs from core.EvaluateContext:\n%s\nwant:\n%s",
				tp.sys.Name, tp.wl.Name, tp.grid.Name, body, want[i])
		}
	}
	// ... and the whole universe by one /v1/batch: 16 hits, 48 misses.
	items := make([]string, len(tuples))
	for i, tp := range tuples {
		items[i] = fmt.Sprintf(`{"system":%q,"workload":%q,"grid":%q}`, tp.sys.Name, tp.wl.Name, tp.grid.Name)
	}
	resp, body := post(t, ts, "/v1/batch", `{"items":[`+strings.Join(items, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, it := range out.Items {
		wantCache := "MISS"
		if i < 16 {
			wantCache = "HIT"
		}
		if it.Error != "" || it.Cache != wantCache {
			t.Fatalf("batch item %d: cache %q error %q, want %s", i, it.Cache, it.Error, wantCache)
		}
		// The envelope re-indents each embedded result; compare compacted.
		var got, ref bytes.Buffer
		if err := json.Compact(&got, it.Result); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&ref, want[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Fatalf("batch item %d through the memo differs from core.EvaluateContext", i)
		}
	}
	// Every evaluate body, now served from the batch-filled cache.
	for i, tp := range tuples {
		resp, body := evaluate(tp)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[i]) {
			t.Fatalf("evaluate %s/%s/%s after the batch: %d, body differs from core.EvaluateContext",
				tp.sys.Name, tp.wl.Name, tp.grid.Name, resp.StatusCode)
		}
	}
	// The suite on every grid and a tcdp miss add no stage runs.
	for _, grid := range carbon.Grids() {
		if resp, body := post(t, ts, "/v1/suite", fmt.Sprintf(`{"grid":%q}`, grid.Name)); resp.StatusCode != http.StatusOK {
			t.Fatalf("suite %s: %d %s", grid.Name, resp.StatusCode, body)
		}
	}
	if resp, body := post(t, ts, "/v1/tcdp", `{"months":36}`); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("tcdp: %d %s %s, want 200 MISS", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}

	wantMisses := map[string]int64{
		core.StageEmbench: 8, core.StageEDRAM: 2, core.StageSynth: 2, core.StageFloorplan: 2, core.StageCarbon: 8,
	}
	stats := srv.memo.Stats()
	_, metrics := get(t, ts, "/metrics")
	for stage, n := range wantMisses {
		if got := stats[stage].Misses; got != n {
			t.Errorf("memo stage %s ran %d times, want %d", stage, got, n)
		}
		for _, line := range []string{
			fmt.Sprintf("ppatcd_memo_misses_total{stage=%q} %d\n", stage, n),
			fmt.Sprintf("ppatcd_memo_hits_total{stage=%q} %d\n", stage, stats[stage].Hits),
		} {
			if !strings.Contains(string(metrics), line) {
				t.Errorf("/metrics missing %q", line)
			}
		}
	}
}

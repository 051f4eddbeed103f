package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ppatc/internal/store"
)

// blockedDir returns a path that MkdirAll cannot create: a child of a
// regular file.
func blockedDir(t *testing.T) string {
	t.Helper()
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(f, "dir")
}

type healthBody struct {
	Status      string        `json:"status"`
	Persistence persistStatus `json:"persistence"`
}

func getHealth(t *testing.T, ts *httptest.Server) healthBody {
	t.Helper()
	_, b := get(t, ts, "/healthz")
	var h healthBody
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatalf("decode healthz %s: %v", b, err)
	}
	return h
}

// TestHealthzPersistenceStatus pins the degrade-don't-die contract: a
// broken store directory keeps the daemon serving but is surfaced on
// /healthz instead of silently swallowed.
func TestHealthzPersistenceStatus(t *testing.T) {
	t.Run("ok", func(t *testing.T) {
		cfg := quietConfig()
		cfg.StoreDir = t.TempDir()
		_, ts := newSweepServer(t, cfg)
		h := getHealth(t, ts)
		if h.Status != "ok" || h.Persistence.Store != "ok" {
			t.Errorf("want ok, got %+v", h)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		_, ts := newSweepServer(t, quietConfig())
		h := getHealth(t, ts)
		if h.Status != "ok" || h.Persistence.Store != "disabled" {
			t.Errorf("want ok/disabled, got %+v", h)
		}
	})
	t.Run("degraded", func(t *testing.T) {
		cfg := quietConfig()
		cfg.StoreDir = blockedDir(t)
		srv, ts := newSweepServer(t, cfg)
		h := getHealth(t, ts)
		if h.Status != "degraded" {
			t.Errorf("status = %q, want degraded", h.Status)
		}
		if got := h.Persistence.Store; !strings.HasPrefix(got, "degraded: ") {
			t.Errorf("store = %q, want degraded: <why>", got)
		}
		// Degraded persistence must not degrade serving.
		resp, _ := post(t, ts, "/v1/evaluate", `{"system":"si","workload":"huff"}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("evaluate under degraded persistence: status %d", resp.StatusCode)
		}
		if srv.store != nil {
			t.Error("degraded store should be nil")
		}
	})
	t.Run("corrupt store", func(t *testing.T) {
		// A segment corrupt in the middle (not a torn tail) refuses to
		// open; the daemon still starts and reports why.
		cfg := quietConfig()
		cfg.StoreDir = t.TempDir()
		seg := `{"format":"ppatc-store-segment","version":1}` + "\nnot json\n" + `{"key":"k","body":""}` + "\n"
		if err := os.WriteFile(filepath.Join(cfg.StoreDir, "seg-00000001.ndjson"), []byte(seg), 0o644); err != nil {
			t.Fatal(err)
		}
		_, ts := newSweepServer(t, cfg)
		if h := getHealth(t, ts); h.Status != "degraded" || !strings.HasPrefix(h.Persistence.Store, "degraded: ") {
			t.Errorf("corrupt store: got %+v, want degraded", h)
		}
	})
}

// TestRestartServesFromStore is the PR's acceptance test: a daemon
// killed and restarted on the same -store-dir serves a previously
// computed sweep's results and a previously evaluated point from disk,
// with zero pipeline re-evaluations — pinned by the evaluation counters.
func TestRestartServesFromStore(t *testing.T) {
	storeDir := t.TempDir()
	cfg := quietConfig()
	cfg.StoreDir = storeDir

	// Life 1: compute an evaluation and a full sweep, then die.
	srv1 := New(cfg)
	ts1 := httptest.NewServer(srv1.Handler())
	const evalReq = `{"system":"si","workload":"huff"}`
	resp, evalBody := post(t, ts1, "/v1/evaluate", evalReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d: %s", resp.StatusCode, evalBody)
	}
	_, b := post(t, ts1, "/v1/sweeps", smokeSweep)
	var st sweepStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("sweep create: %v", err)
	}
	if got := waitSweep(t, ts1, st.ID); got.Status != SweepDone {
		t.Fatalf("sweep ended %q: %s", got.Status, got.Error)
	}
	_, liveNDJSON := get(t, ts1, "/v1/sweeps/"+st.ID+"/results")
	pointsEvaluated := srv1.Metrics().SweepPoints.Load()
	if pointsEvaluated == 0 {
		t.Fatal("sweep evaluated nothing")
	}
	ts1.Close()
	srv1.Close()

	// Life 2: same store directory, fresh process state.
	srv2 := New(cfg)
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})

	// The finished sweep replays from disk, byte-identically, under an
	// ID the in-memory job table has never seen.
	resp, storedNDJSON := get(t, ts2, "/v1/sweeps/"+st.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stored sweep results: status %d: %s", resp.StatusCode, storedNDJSON)
	}
	if resp.Header.Get("X-Cache") != "STORE" {
		t.Errorf("X-Cache = %q, want STORE", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(storedNDJSON, liveNDJSON) {
		t.Error("stored sweep replay differs from the live stream")
	}
	_, b = get(t, ts2, "/v1/sweeps/"+st.ID)
	var restored sweepStatus
	if err := json.Unmarshal(b, &restored); err != nil {
		t.Fatalf("restored status: %v", err)
	}
	if restored.Status != SweepDone || !restored.Stored || restored.Completed != restored.Total {
		t.Errorf("restored status = %+v", restored)
	}

	// The evaluation replays from the warmed cache, byte-identically.
	resp, evalBody2 := post(t, ts2, "/v1/evaluate", evalReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate after restart: status %d", resp.StatusCode)
	}
	if disp := resp.Header.Get("X-Cache"); disp != "HIT" {
		t.Errorf("X-Cache = %q, want HIT (warmed from store)", disp)
	}
	if !bytes.Equal(evalBody2, evalBody) {
		t.Error("evaluation differs across restart")
	}

	// Re-submitting the same sweep spec adopts every stored point.
	_, b = post(t, ts2, "/v1/sweeps", smokeSweep)
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, ts2, st.ID)
	if final.Status != SweepDone {
		t.Fatalf("re-run ended %q: %s", final.Status, final.Error)
	}
	if final.Resumed != final.Total {
		t.Errorf("resumed %d of %d points from the store", final.Resumed, final.Total)
	}

	// The acceptance bar: this entire life served history without one
	// pipeline evaluation.
	m := srv2.Metrics()
	if got := m.SweepPoints.Load(); got != 0 {
		t.Errorf("restarted daemon evaluated %d sweep points, want 0", got)
	}
	if got := m.CacheMisses.Load(); got != 0 {
		t.Errorf("restarted daemon had %d cache misses, want 0 (warm cache)", got)
	}
	if got := m.StageCount("embench"); got != 0 {
		t.Errorf("restarted daemon ran %d embench stages, want 0", got)
	}
}

// TestFrontierSurvivesRestart checks a done sweep's analysis bundle is
// persisted beside its results: after a restart on the same store the
// /frontier bytes are the ones the live job served, with no
// re-evaluation, and an unknown ID is still a 404.
func TestFrontierSurvivesRestart(t *testing.T) {
	cfg := quietConfig()
	cfg.StoreDir = t.TempDir()

	srv1 := New(cfg)
	ts1 := httptest.NewServer(srv1.Handler())
	_, b := post(t, ts1, "/v1/sweeps", smokeSweep)
	var st sweepStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("sweep create: %v", err)
	}
	if got := waitSweep(t, ts1, st.ID); got.Status != SweepDone {
		t.Fatalf("sweep ended %q: %s", got.Status, got.Error)
	}
	resp, live := get(t, ts1, "/v1/sweeps/"+st.ID+"/frontier")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live frontier: status %d: %s", resp.StatusCode, live)
	}
	ts1.Close()
	srv1.Close()

	srv2 := New(cfg)
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})
	resp, stored := get(t, ts2, "/v1/sweeps/"+st.ID+"/frontier")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontier after restart: status %d: %s", resp.StatusCode, stored)
	}
	if resp.Header.Get("X-Cache") != "STORE" || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("headers X-Cache %q Content-Type %q, want STORE and application/json",
			resp.Header.Get("X-Cache"), resp.Header.Get("Content-Type"))
	}
	if !bytes.Equal(stored, live) {
		t.Errorf("frontier after restart differs from the live one:\n%s\nvs\n%s", stored, live)
	}
	if got := srv2.Metrics().SweepPoints.Load(); got != 0 {
		t.Errorf("restarted daemon evaluated %d sweep points, want 0", got)
	}
	if resp, _ := get(t, ts2, "/v1/sweeps/nosuchsweep/frontier"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep frontier: status %d, want 404", resp.StatusCode)
	}
}

// TestStoreDispositionAfterEviction pins the middle tier: evicted from
// the LRU but present on disk is served as X-Cache: STORE, not
// recomputed.
func TestStoreDispositionAfterEviction(t *testing.T) {
	cfg := quietConfig()
	cfg.CacheEntries = 1
	cfg.CacheShards = 1
	cfg.Store = store.NewMemStore()
	srv, ts := newSweepServer(t, cfg)

	reqA := `{"system":"si","workload":"huff"}`
	reqB := `{"system":"m3d","workload":"huff"}`
	respA, bodyA := post(t, ts, "/v1/evaluate", reqA)
	if respA.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first A: X-Cache %q", respA.Header.Get("X-Cache"))
	}
	post(t, ts, "/v1/evaluate", reqB) // evicts A from the 1-entry cache

	respA2, bodyA2 := post(t, ts, "/v1/evaluate", reqA)
	if got := respA2.Header.Get("X-Cache"); got != "STORE" {
		t.Errorf("evicted A: X-Cache %q, want STORE", got)
	}
	if !bytes.Equal(bodyA2, bodyA) {
		t.Error("store-served body differs from computed body")
	}
	if hits := srv.Metrics().StoreHits.Load(); hits == 0 {
		t.Error("store hit not counted")
	}
	// The store promotion put A back in the cache: next read is a HIT.
	respA3, _ := post(t, ts, "/v1/evaluate", reqA)
	if got := respA3.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("promoted A: X-Cache %q, want HIT", got)
	}
}

// TestResultEndpoints covers the operator surface over the store.
func TestResultEndpoints(t *testing.T) {
	cfg := quietConfig()
	cfg.Store = store.NewMemStore()
	_, ts := newSweepServer(t, cfg)

	_, evalBody := post(t, ts, "/v1/evaluate", `{"system":"si","workload":"huff"}`)

	resp, b := get(t, ts, "/v1/results?prefix=evaluate%7C")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d: %s", resp.StatusCode, b)
	}
	var list resultListResponse
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || len(list.Results) != 1 {
		t.Fatalf("list = %+v, want exactly the evaluate record", list)
	}
	if list.Results[0].Kind != "evaluate" {
		t.Errorf("kind = %q", list.Results[0].Kind)
	}
	if list.Stats.Keys != 1 || list.Stats.Puts != 1 {
		t.Errorf("stats = %+v", list.Stats)
	}

	// Fetch the record verbatim by its (escaped) canonical key.
	resp, b = get(t, ts, "/v1/results/"+url.PathEscape(list.Results[0].Key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Cache") != "STORE" {
		t.Errorf("X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b, evalBody) {
		t.Error("stored record differs from served response")
	}

	if resp, _ = get(t, ts, "/v1/results/"+url.PathEscape("no|such|key")); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing key: status %d, want 404", resp.StatusCode)
	}

	// Without a store the endpoints refuse rather than 404-ing.
	_, tsNone := newSweepServer(t, quietConfig())
	if resp, _ = get(t, tsNone, "/v1/results"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("no store: status %d, want 503", resp.StatusCode)
	}
	if resp, _ = get(t, tsNone, "/v1/results/x"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("no store get: status %d, want 503", resp.StatusCode)
	}
}

// TestConcurrentCacheStoreWriteThrough hammers the sharded LRU and the
// store write-through/promotion paths from many goroutines with a cache
// small enough to evict constantly. Run under -race; it also pins the
// copy-on-Put contract — bytes handed to the cache/store stay immutable
// after the caller's buffer is recycled.
func TestConcurrentCacheStoreWriteThrough(t *testing.T) {
	cfg := quietConfig()
	cfg.CacheEntries = 4
	cfg.CacheShards = 2
	cfg.Store = store.NewMemStore()
	srv, _ := newSweepServer(t, cfg)

	const (
		workers = 8
		rounds  = 200
		keys    = 16
	)
	canonical := make([][]byte, keys)
	for i := range canonical {
		canonical[i] = []byte(fmt.Sprintf(`{"point":%d,"payload":"0123456789abcdef"}`, i))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % keys
				key := fmt.Sprintf("evaluate|conc|%d", i)
				switch r % 3 {
				case 0:
					// Write through a scratch buffer, then scribble on it:
					// the cache and store must hold their own copies.
					scratch := append([]byte(nil), canonical[i]...)
					stored := srv.cache.Put(key, scratch)
					srv.persistResult(key, stored)
					for b := range scratch {
						scratch[b] = 'X'
					}
				case 1:
					if b, ok := srv.cache.Get(key); ok && !bytes.Equal(b, canonical[i]) {
						t.Errorf("cache corrupted key %s", key)
						return
					}
				case 2:
					if b, ok := srv.storeLookup(key); ok && !bytes.Equal(b, canonical[i]) {
						t.Errorf("store corrupted key %s", key)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// After the dust settles every persisted record is pristine.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("evaluate|conc|%d", i)
		rec, ok, err := cfg.Store.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if ok && !bytes.Equal(rec.Body, canonical[i]) {
			t.Errorf("store holds corrupted body for %s", key)
		}
	}
	if errs := srv.Metrics().StoreErrors.Load(); errs != 0 {
		t.Errorf("store errors under concurrency: %d", errs)
	}
}

package server

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"ppatc/internal/dse"
	"ppatc/internal/store"
)

// The persistence layer: evaluation responses and sweep results write
// through the in-memory cache to a pluggable store.ResultStore, so a
// restarted (or scaled-out) daemon serves historical results from disk
// instead of re-running the pipeline. The store is an accelerator, not
// a dependency — every store failure degrades to compute-on-miss and is
// surfaced on /healthz rather than failing requests.

// persistStatus is the /healthz persistence report: the result store is
// "ok", "disabled", or "degraded: <why>".
type persistStatus struct {
	Store string `json:"store"`
}

// openStore resolves Config.Store/StoreDir into the server's result
// store. A failed open logs, marks /healthz degraded and leaves the
// daemon serving compute-only: losing persistence must not take the
// daemon down.
func (s *Server) openStore(cfg Config) {
	switch {
	case cfg.Store != nil:
		s.store = cfg.Store
		s.persist.Store = "ok"
	case cfg.StoreDir == "":
		s.persist.Store = "disabled"
		return
	default:
		var err error
		s.store, err = store.OpenSegmentStore(cfg.StoreDir, 0)
		if err != nil {
			s.log.Error("result store unavailable; persistence disabled",
				"dir", cfg.StoreDir, "error", err)
			s.persist.Store = "degraded: " + err.Error()
			s.store = nil
			return
		}
		s.persist.Store = "ok"
	}
	s.metrics.storeKeys = func() int { return s.store.Stats().Keys }
	s.warmCache()
}

// errWarmFull stops the warm-up scan once the cache is at capacity.
var errWarmFull = errors.New("cache full")

// warmCache preloads the response cache from the store at boot, newest
// restart picking up where the last process left off: request-shaped
// records (evaluate, suite, tcdp) go straight into the LRU so the first
// wave of traffic after a restart hits memory, not disk or pipeline.
func (s *Server) warmCache() {
	warmed := 0
	for _, prefix := range []string{"evaluate|", "suite|", "tcdp:"} {
		err := s.store.Scan(prefix, func(rec store.Record) error {
			if warmed >= s.cfg.CacheEntries {
				return errWarmFull
			}
			s.cache.Put(rec.Key, rec.Body)
			warmed++
			return nil
		})
		if err != nil && !errors.Is(err, errWarmFull) {
			s.log.Error("cache warm-up scan failed", "prefix", prefix, "error", err)
			s.metrics.StoreErrors.Add(1)
			return
		}
		if errors.Is(err, errWarmFull) {
			break
		}
	}
	if warmed > 0 {
		s.log.Info("cache warmed from store", "entries", warmed)
	}
}

// storeKind tags a response-cache key with its record kind.
func storeKind(key string) string {
	switch {
	case strings.HasPrefix(key, "evaluate|"):
		return "evaluate"
	case strings.HasPrefix(key, "suite|"):
		return "suite"
	case strings.HasPrefix(key, "tcdp:"):
		return "tcdp"
	default:
		return "result"
	}
}

// persistResult writes one computed response through to the store.
// Failures are metered and logged, never propagated — losing
// persistence must not fail the request that computed the result.
func (s *Server) persistResult(key string, body []byte) {
	s.persistResultFor(key, body, "")
}

// persistResultFor is persistResult carrying the originating request's
// ID, so a failed (or slow) write-through joins back to the request
// that computed the result in the logs and flight recorder.
func (s *Server) persistResultFor(key string, body []byte, requestID string) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(store.Record{Key: key, Kind: storeKind(key), Body: body}); err != nil {
		s.metrics.StoreErrors.Add(1)
		s.log.Warn("store write-through failed", "key", key, "request_id", requestID, "error", err)
		return
	}
	s.metrics.StoreWrites.Add(1)
}

// storeLookup serves a cache miss from the persistent store, promoting
// the record back into the LRU. ok is false when there is no store, the
// key is absent, or the read failed (metered, logged, degraded to
// compute).
func (s *Server) storeLookup(key string) (body []byte, ok bool) {
	if s.store == nil {
		return nil, false
	}
	rec, ok, err := s.store.Get(key)
	if err != nil {
		s.metrics.StoreErrors.Add(1)
		s.log.Warn("store read failed", "key", key, "error", err)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	s.metrics.StoreHits.Add(1)
	return s.cache.Put(key, rec.Body), true
}

// persistPoint writes one freshly evaluated sweep point through to the
// store under its coordinate key. Metered log-don't-fail, like every
// persistence write.
func (s *Server) persistPoint(plan *dse.Plan, r dse.Result, requestID string) {
	if s.store == nil {
		return
	}
	if err := dse.PersistPoint(s.store, plan, r); err != nil {
		s.metrics.StoreErrors.Add(1)
		s.log.Warn("point persist failed", "index", r.Index, "request_id", requestID, "error", err)
		return
	}
	s.metrics.StoreWrites.Add(1)
}

// loadStoredSweep reads a finished sweep's result set from the store;
// ok is false when there's no store, no record, or the read failed.
func (s *Server) loadStoredSweep(id string) ([]dse.Result, bool) {
	if s.store == nil {
		return nil, false
	}
	results, ok, err := dse.LoadSweep(s.store, id)
	if err != nil {
		s.metrics.StoreErrors.Add(1)
		s.log.Warn("stored sweep read failed", "id", id, "error", err)
		return nil, false
	}
	if ok {
		s.metrics.StoreHits.Add(1)
	}
	return results, ok
}

// serveStoredSweepResults replays a finished sweep's NDJSON stream from
// the store for an ID the in-memory job table no longer knows — the
// daemon restarted since the sweep ran. The replay is byte-identical to
// the live stream: MarshalLine over the same ordered result set.
func (s *Server) serveStoredSweepResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	results, ok := s.loadStoredSweep(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", "STORE")
	for i := range results {
		line, err := results[i].MarshalLine()
		if err != nil {
			return
		}
		if _, err := w.Write(line); err != nil {
			return
		}
	}
}

// serveStoredSweepStatus reconstructs a terminal status for a stored
// sweep whose job entry didn't survive the restart.
func (s *Server) serveStoredSweepStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	results, ok := s.loadStoredSweep(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	writeJSON(w, sweepStatus{
		ID:        id,
		Status:    SweepDone,
		Total:     len(results),
		Completed: len(results),
		Stored:    true,
	})
}

// persistSweep stores a finished sweep's result set for post-restart
// replay; per-point records were already written by the OnComplete
// write-through.
func (s *Server) persistSweep(id string, results []dse.Result, requestID string) {
	if s.store == nil {
		return
	}
	if err := dse.PersistSweep(s.store, id, results); err != nil {
		s.metrics.StoreErrors.Add(1)
		s.log.Warn("sweep persist failed", "id", id, "request_id", requestID, "error", err)
		return
	}
	s.metrics.StoreWrites.Add(1)
}

// persistAnalyses stores a done sweep's encoded analysis bundle beside
// its result set, so /frontier survives a restart.
func (s *Server) persistAnalyses(id string, body []byte, requestID string) {
	if s.store == nil {
		return
	}
	err := s.store.Put(store.Record{Key: dse.AnalysesKey(id), Kind: dse.KindAnalyses, Body: body})
	if err != nil {
		s.metrics.StoreErrors.Add(1)
		s.log.Warn("sweep analyses persist failed", "id", id, "request_id", requestID, "error", err)
		return
	}
	s.metrics.StoreWrites.Add(1)
}

// serveStoredSweepFrontier replays a finished sweep's analysis bundle
// from the store for an ID the job table no longer knows, byte for byte
// as the live job served it.
func (s *Server) serveStoredSweepFrontier(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var rec store.Record
	ok := false
	if s.store != nil {
		var err error
		rec, ok, err = s.store.Get(dse.AnalysesKey(id))
		if err != nil {
			s.metrics.StoreErrors.Add(1)
			s.log.Warn("stored sweep analyses read failed", "id", id, "error", err)
			ok = false
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	s.metrics.StoreHits.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "STORE")
	_, _ = w.Write(rec.Body)
}

// resultInfo is one entry of the GET /v1/results listing.
type resultInfo struct {
	Key   string `json:"key"`
	Kind  string `json:"kind,omitempty"`
	Bytes int    `json:"bytes"`
}

// resultListResponse is the GET /v1/results envelope.
type resultListResponse struct {
	Stats   store.Stats  `json:"stats"`
	Count   int          `json:"count"`
	Results []resultInfo `json:"results"`
}

// handleResultList lists stored records (filtered by ?prefix=), with
// the store's stats — the operator's view of what survived restarts.
func (s *Server) handleResultList(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("no result store configured (-store-dir)"))
		return
	}
	prefix := ""
	if r.URL.RawQuery != "" {
		prefix = r.URL.Query().Get("prefix")
	}
	out := resultListResponse{Stats: s.store.Stats(), Results: []resultInfo{}}
	err := s.store.Scan(prefix, func(rec store.Record) error {
		out.Results = append(out.Results, resultInfo{Key: rec.Key, Kind: rec.Kind, Bytes: len(rec.Body)})
		return nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out.Count = len(out.Results)
	writeJSON(w, out)
}

// handleResultGet serves one stored record verbatim by its canonical
// key (URL-escaped in the path: GET /v1/results/evaluate%7Csi%7C…).
// Bodies are returned byte-identically to the computation that produced
// them, restarts notwithstanding.
func (s *Server) handleResultGet(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("no result store configured (-store-dir)"))
		return
	}
	key := r.PathValue("key")
	rec, ok, err := s.store.Get(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no stored result under key %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "STORE")
	_, _ = w.Write(rec.Body)
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
)

// maxBatchItems bounds one /v1/batch request. A full cross product of
// the bundled systems, workloads and grids is 2×8×4 = 64 tuples; 256
// leaves headroom without letting one request monopolize the pool.
const maxBatchItems = 256

// batchItem names one evaluation tuple of a batch request.
type batchItem struct {
	// System is "all-Si", "M3D IGZO/CNFET/Si", or the shorthands si/m3d.
	System string `json:"system"`
	// Workload is a bundled Embench-style kernel name.
	Workload string `json:"workload"`
	// Grid names the energy grid (default "US").
	Grid string `json:"grid"`
}

// batchRequest asks for many evaluations in one round trip.
type batchRequest struct {
	Items []batchItem `json:"items"`
}

// batchItemResult is one item's slice of the batch response: the echoed
// (canonicalized) tuple plus either the evaluation result or the item's
// own error. Item errors don't fail the batch — each item stands alone.
type batchItemResult struct {
	Index    int             `json:"index"`
	System   string          `json:"system,omitempty"`
	Workload string          `json:"workload,omitempty"`
	Grid     string          `json:"grid,omitempty"`
	Cache    string          `json:"cache,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// batchResponse is the /v1/batch envelope.
type batchResponse struct {
	Count int               `json:"count"`
	Items []batchItemResult `json:"items"`
}

// handleBatch evaluates a list of (system, workload, grid) tuples in one
// request. Each item resolves through the same cache keys as
// /v1/evaluate: cached tuples are answered inline, and the misses are
// computed one at a time through the same pool, coalescing, cache and
// store as a single evaluation. Every miss goes through the daemon's
// stage memo, so after the first few the remaining items replay their
// expensive stages, and a batch never holds more than one worker.
// Invalid items report their error in place; the batch as a whole fails
// only on malformed JSON, an empty or oversized item list, or a
// dead/cancelled request context.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch needs at least one item"))
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d items exceeds the limit of %d", len(req.Items), maxBatchItems))
		return
	}

	att := attributionOf(w)
	att.BatchSize = len(req.Items)

	out := batchResponse{
		Count: len(req.Items),
		Items: make([]batchItemResult, len(req.Items)),
	}
	// First pass, inline: canonicalize every tuple and serve the cache
	// hits. Misses are collected for the second pass.
	type pending struct {
		idx  int
		key  string
		work workFn
	}
	var misses []pending
	//ppatcvet:ignore determinism latency attribution measures wall time only; it never flows into response bytes
	lookupStart := time.Now()
	sawHit := false
	for i, it := range req.Items {
		res := &out.Items[i]
		res.Index = i
		if it.Grid == "" {
			it.Grid = "US"
		}
		sysName, err := core.CanonicalSystemName(it.System)
		if err != nil {
			res.Error = err.Error()
			continue
		}
		wl, err := embench.ByName(it.Workload)
		if err != nil {
			res.Error = err.Error()
			continue
		}
		grid, err := carbon.GridByName(it.Grid)
		if err != nil {
			res.Error = err.Error()
			continue
		}
		res.System, res.Workload, res.Grid = sysName, wl.Name, grid.Name
		key := evaluateKey(sysName, wl.Name, grid.Name)
		if b, ok := s.cache.Get(key); ok {
			s.metrics.CacheHits.Add(1)
			res.Cache = "HIT"
			res.Result = b
			sawHit = true
			continue
		}
		misses = append(misses, pending{idx: i, key: key, work: s.evaluateWork(sysName, wl, grid)})
	}
	att.CacheLookupNS += time.Since(lookupStart).Nanoseconds()

	// Second pass: compute the misses in turn. Each item's stage times
	// add straight into the request's attribution, so the stages still
	// partition the wall clock.
	if len(misses) > 0 {
		ctx := r.Context()
		dispositions := make(map[string]bool, 4)
		for _, p := range misses {
			if ctx.Err() != nil {
				break
			}
			res := &out.Items[p.idx]
			// Batch items never forward: one batch can touch many keys
			// with many owners, and a burst of cross-node hops would
			// cost more than the recompute it saves.
			body, disposition, err := s.compute(ctx, p.key, p.work, att, nil)
			dispositions[disposition] = true
			if err != nil {
				res.Error = err.Error()
				continue
			}
			res.Cache = disposition
			res.Result = body
		}
		// A dead client can't use partial results; report the
		// cancellation (or timeout) as the batch outcome.
		if err := ctx.Err(); err != nil {
			s.writeComputeError(w, err)
			return
		}
		att.Disposition = aggregateDisposition(dispositions, sawHit)
	} else if sawHit {
		att.Disposition = "HIT"
	}
	w.Header().Set("X-Cache", att.DispositionOrNone())

	writeJSON(w, out)
}

// aggregateDisposition reduces a batch's per-item dispositions to one
// headline value, worst-first: a single miss makes the batch a MISS.
func aggregateDisposition(saw map[string]bool, sawHit bool) string {
	switch {
	case saw["MISS"]:
		return "MISS"
	case saw["STORE"]:
		return "STORE"
	case saw["COALESCED"]:
		return "COALESCED"
	case sawHit || saw["HIT"]:
		return "HIT"
	default:
		return ""
	}
}

package dse

import (
	"encoding/json"
	"fmt"
	"strings"

	"ppatc/internal/store"
)

// This file bridges the sweep engine to the persistent result store:
// finished points write through under coordinate-identity keys, so a
// later job touching the same point — any job, not just a resume of the
// same spec — adopts the stored result instead of re-running the
// pipeline, and a finished sweep's full ordered result set persists
// under its job ID for replay after a daemon restart.

// Store record kinds written by the sweep engine.
const (
	KindPoint    = "point"
	KindSweep    = "sweep"
	KindAnalyses = "dse"
)

// PointKey is the canonical store key of one plan point: every input
// that determines the evaluation's output — the full coordinate plus
// the plan's use-phase grid — and nothing that doesn't (plan index,
// replica number, seed). Two points with equal keys produce byte-equal
// results, per the engine's determinism contract, which is what makes
// cross-job dedup sound.
func PointKey(useGrid string, useGPerKWh float64, p Point) string {
	var sb strings.Builder
	sb.Grow(128)
	fmt.Fprintf(&sb, "dsepoint|%s|%s|%s|%g|%g|%g|%g|%s|%g",
		p.System, p.Workload, p.Grid.Name, p.Grid.Intensity.GramsPerKilowattHour(),
		p.ClockMHz, p.LifetimeMonths, p.CIUseScale, useGrid, useGPerKWh)
	for _, v := range []*float64{p.YieldD0, p.M3DYield, p.M3DEmbodiedScale} {
		if v == nil {
			sb.WriteString("|-")
		} else {
			fmt.Fprintf(&sb, "|%g", *v)
		}
	}
	return sb.String()
}

// planPointKey keys a point against its own plan's use grid.
func planPointKey(plan *Plan, p Point) string {
	return PointKey(plan.UseGrid.Name, plan.UseGrid.Intensity.GramsPerKilowattHour(), p)
}

// SweepKey is the store key of a finished sweep's ordered result set.
func SweepKey(id string) string { return "sweep|" + id }

// AnalysesKey is the store key of a finished sweep's encoded analysis
// bundle (frontier, sensitivity, winners), stored beside SweepKey(id).
func AnalysesKey(id string) string { return "dse|" + id }

// StoredCompleted scans st for results of plan's points computed by any
// earlier job and returns them keyed by plan index — the shape of
// Options.Completed, so the engine skips their evaluation. This is how
// every sweep resumes: an interrupted run left its points in the store
// under the same keys. Adopted results are re-stamped with this plan's
// index and replica (the only job-relative fields). Store read errors
// skip the point rather than failing the sweep: the store is an
// accelerator, not a dependency.
func StoredCompleted(st store.ResultStore, plan *Plan) map[int]Result {
	if st == nil {
		return nil
	}
	var out map[int]Result
	for _, p := range plan.Points {
		rec, ok, err := st.Get(planPointKey(plan, p))
		if err != nil || !ok {
			continue
		}
		var r Result
		if err := json.Unmarshal(rec.Body, &r); err != nil {
			continue
		}
		r.Index = p.Index
		r.Replica = p.Replica
		if out == nil {
			out = make(map[int]Result)
		}
		out[p.Index] = r
	}
	return out
}

// PersistPoint writes one freshly evaluated result through to st under
// its coordinate key. Safe to call from Options.OnComplete (calls are
// serialized by the engine).
func PersistPoint(st store.ResultStore, plan *Plan, r Result) error {
	if st == nil {
		return nil
	}
	if r.Index < 0 || r.Index >= len(plan.Points) {
		return fmt.Errorf("dse: persist: index %d outside plan", r.Index)
	}
	body, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return st.Put(store.Record{Key: planPointKey(plan, plan.Points[r.Index]), Kind: KindPoint, Body: body})
}

// PersistSweep stores a finished sweep's full result set (plan order)
// under SweepKey(id), as one JSON array record.
func PersistSweep(st store.ResultStore, id string, results []Result) error {
	if st == nil {
		return nil
	}
	body, err := json.Marshal(results)
	if err != nil {
		return err
	}
	return st.Put(store.Record{Key: SweepKey(id), Kind: KindSweep, Body: body})
}

// LoadSweep reads a stored sweep result set back. The NDJSON rendering
// of the returned slice (Result.MarshalLine per element) is
// byte-identical to the live stream that produced it: Result marshals
// with fixed field order and shortest-round-trip floats.
func LoadSweep(st store.ResultStore, id string) ([]Result, bool, error) {
	if st == nil {
		return nil, false, nil
	}
	rec, ok, err := st.Get(SweepKey(id))
	if err != nil || !ok {
		return nil, false, err
	}
	var results []Result
	if err := json.Unmarshal(rec.Body, &results); err != nil {
		return nil, false, fmt.Errorf("dse: stored sweep %s: %w", id, err)
	}
	return results, true, nil
}

package dse

import (
	"bytes"
	"os"
	"testing"
)

// fuzzExpandLimit is the largest plan the fuzz target expands; bigger
// plans are sized by PlanSize only, so no input can make one fuzz
// iteration allocate much.
const fuzzExpandLimit = 4096

// FuzzSpecExpand drives client-supplied sweep specs through the path
// POST /v1/sweeps takes: ParseSpec, then PlanSize, then Expand. Every
// input must either fail with an error or, when PlanSize accepts it
// within fuzzExpandLimit, expand to exactly that many points indexed
// 0..n-1. The seeds are the smoke spec plus the oversized specs the
// plan bound was written for.
func FuzzSpecExpand(f *testing.F) {
	smoke, err := os.ReadFile("testdata/smoke.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	for _, seed := range []string{
		`{"axes": {
			"clock_mhz": {"linspace": {"lo": 100, "hi": 500, "n": 100000}},
			"lifetime_months": {"linspace": {"lo": 1, "hi": 90, "n": 100000}},
			"m3d_embodied_scale": {"linspace": {"lo": 0.5, "hi": 2, "n": 100000}},
			"ci_use_scale": {"linspace": {"lo": 0.1, "hi": 2, "n": 100000}}}}`,
		`{"samples": 200000000, "axes": {"lifetime_months": {"dist": {"kind": "uniform", "lo": 1, "hi": 90}}}}`,
		`{"axes": {"clock_mhz": {"linspace": {"lo": 1, "hi": 2, "n": 2000000000}}}}`,
		`{"samples": 1048576, "axes": {"lifetime_months": {"dist": {"kind": "uniform", "lo": 1, "hi": 90}}}}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		n, err := PlanSize(spec)
		if err != nil || n > fuzzExpandLimit {
			return
		}
		plan, err := Expand(spec)
		if err != nil {
			t.Fatalf("PlanSize accepted the spec (%d points) but Expand failed: %v", n, err)
		}
		if len(plan.Points) != n {
			t.Fatalf("Expand produced %d points, PlanSize said %d", len(plan.Points), n)
		}
		for i, p := range plan.Points {
			if p.Index != i {
				t.Fatalf("point %d carries index %d", i, p.Index)
			}
		}
	})
}

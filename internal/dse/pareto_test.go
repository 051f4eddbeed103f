package dse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// frontierOracle is the all-pairs dominance loop Frontier replaced:
// O(n²), but obviously the definition. The skyline must agree with it
// exactly — same points, same order.
func frontierOracle(results []Result, objectives []Objective) ([]Result, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("dse: frontier needs at least one objective")
	}
	for _, o := range objectives {
		if !ValidMetric(o.Metric) {
			return nil, fmt.Errorf("dse: unknown objective metric %q", o.Metric)
		}
	}
	var feasible []Result
	var scores [][]float64
	for i := range results {
		if !results[i].Feasible {
			continue
		}
		row := make([]float64, len(objectives))
		for j, o := range objectives {
			v, _ := results[i].Metric(o.Metric)
			if o.Maximize {
				v = -v
			}
			row[j] = v
		}
		feasible = append(feasible, results[i])
		scores = append(scores, row)
	}
	var keep []int
	for i := range feasible {
		dominated := false
		for k := range feasible {
			if k != i && dominates(scores[k], scores[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	sort.SliceStable(keep, func(a, b int) bool {
		return scores[keep[a]][0] < scores[keep[b]][0]
	})
	front := make([]Result, len(keep))
	for i, k := range keep {
		front[i] = feasible[k]
	}
	return front, nil
}

// frontierMetrics are the fields randomFrontierCase fills.
var frontierMetrics = []string{"exec_time_s", "tc_g", "total_area_mm2", "yield"}

// randomFrontierCase draws n results with integer-valued metrics over a
// small range (so ties and exact duplicates are common), ~10%
// infeasible, and 1–3 objectives with a mix of Maximize. With anti set,
// the first two metrics are anti-correlated, putting a large share of
// the points on a two-objective frontier.
func randomFrontierCase(rng *rand.Rand, n int, anti bool) ([]Result, []Objective) {
	span := []float64{2, 5, 30, 1000}[rng.Intn(4)]
	draw := func() float64 { return float64(rng.Intn(int(span))) }
	results := make([]Result, n)
	for i := range results {
		r := Result{Index: i, Feasible: rng.Intn(10) != 0}
		if r.Feasible {
			r.ExecTimeS, r.TCG, r.TotalAreaMM2, r.Yield = draw(), draw(), draw(), draw()
			if anti {
				r.TCG = span - r.ExecTimeS + float64(rng.Intn(2))
			}
		}
		results[i] = r
	}
	perm := rng.Perm(len(frontierMetrics))
	objs := make([]Objective, 1+rng.Intn(3))
	for j := range objs {
		objs[j] = Objective{Metric: frontierMetrics[perm[j]], Maximize: rng.Intn(3) == 0}
	}
	if anti && len(objs) >= 2 {
		objs[0] = Objective{Metric: "exec_time_s"}
		objs[1] = Objective{Metric: "tc_g"}
	}
	return results, objs
}

// TestFrontierMatchesOracle compares the skyline with the all-pairs
// loop over random tie-heavy cases of 1–3 objectives, up to ~3k points.
func TestFrontierMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(40)
		if trial%10 == 0 {
			n = 500 + rng.Intn(2500)
		}
		anti := trial%3 == 0
		results, objs := randomFrontierCase(rng, n, anti)
		want, err := frontierOracle(results, objs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Frontier(results, objs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d anti=%v objectives %+v): frontier of %d points, oracle %d",
				trial, n, anti, objs, len(got), len(want))
		}
	}
}

// TestFrontierRejectsNonFinite checks a feasible NaN or ±Inf objective
// is an error rather than an undominatable frontier point, and that the
// same value on an infeasible point is ignored.
func TestFrontierRejectsNonFinite(t *testing.T) {
	objs := []Objective{{Metric: "tc_g"}, {Metric: "exec_time_s", Maximize: true}}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, metric := range []string{"tc_g", "exec_time_s"} {
			results := []Result{
				{Index: 0, Feasible: true, TCG: 1, ExecTimeS: 1},
				{Index: 1, Feasible: true, TCG: 2, ExecTimeS: 2},
			}
			if metric == "tc_g" {
				results[1].TCG = bad
			} else {
				results[1].ExecTimeS = bad
			}
			_, err := Frontier(results, objs)
			if err == nil || !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), metric) {
				t.Errorf("%s = %g: err %v, want a non-finite %s error", metric, bad, err, metric)
			}
			results[1].Feasible = false
			front, err := Frontier(results, objs)
			if err != nil || len(front) != 1 || front[0].Index != 0 {
				t.Errorf("%s = %g on an infeasible point: front %+v, err %v", metric, bad, front, err)
			}
		}
	}
}

// perfbenchShaped builds results shaped like the repository benchmark's
// sweep: 2 systems × 2 workloads × 12 grids × 2 clocks × 500 replicas,
// where execution time takes one value per (system, workload, clock)
// and total carbon varies continuously.
func perfbenchShaped() []Result {
	rng := rand.New(rand.NewSource(1))
	var results []Result
	for s := 0; s < 2; s++ {
		for w := 0; w < 2; w++ {
			for g := 0; g < 12; g++ {
				for c := 0; c < 2; c++ {
					for rep := 0; rep < 500; rep++ {
						exec := (1 + float64(w)) / (1 + float64(c)) * (1 - 0.02*float64(s))
						results = append(results, Result{
							Index: len(results), Replica: rep, Feasible: true,
							ExecTimeS: exec,
							TCG:       float64(g+1) * (6 + 66*rng.Float64()) * (1 + 0.1*float64(s)*rng.Float64()),
						})
					}
				}
			}
		}
	}
	return results
}

// antiCorrelated builds n two-objective points that all lie on the
// frontier — the skyline's worst case, and the all-pairs loop's.
func antiCorrelated(n int) []Result {
	results := make([]Result, n)
	for i := range results {
		x := float64(i) / float64(n)
		results[i] = Result{Index: i, Feasible: true, ExecTimeS: x, TCG: 1 - x}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(a, b int) { results[a], results[b] = results[b], results[a] })
	return results
}

// BenchmarkFrontier runs the frontier on a benchmark-shaped 48k-point
// sweep and on 100k (a daemon's default sweep cap) anti-correlated
// points. A quadratic regression shows as minutes per op.
func BenchmarkFrontier(b *testing.B) {
	objs := []Objective{{Metric: "tc_g"}, {Metric: "exec_time_s"}}
	for _, c := range []struct {
		name    string
		results []Result
		front   int
	}{
		{"sweep-48k", perfbenchShaped(), -1},
		{"anticorrelated-100k", antiCorrelated(100_000), 100_000},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				front, err := Frontier(c.results, objs)
				if err != nil {
					b.Fatal(err)
				}
				if len(front) == 0 || (c.front >= 0 && len(front) != c.front) {
					b.Fatalf("frontier of %d points", len(front))
				}
			}
		})
	}
}

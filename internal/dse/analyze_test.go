package dse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The oracles below are the fmt-keyed Sensitivity and Winners the
// analyses replaced. The rewrites key levels and coordinates by value
// bits instead of formatted strings; their results and formatted
// reports must not change by a byte.

var oracleAxes = []struct {
	name    string
	label   func(*Result) string
	numeric func(*Result) (float64, bool)
}{
	{"system", func(r *Result) string { return r.System }, nil},
	{"workload", func(r *Result) string { return r.Workload }, nil},
	{"grid", func(r *Result) string { return r.Grid },
		func(r *Result) (float64, bool) { return r.GridGPerKWh, true }},
	{"clock_mhz", func(r *Result) string { return fmt.Sprintf("%g", r.ClockMHz) },
		func(r *Result) (float64, bool) { return r.ClockMHz, true }},
	{"lifetime_months", func(r *Result) string { return fmt.Sprintf("%g", r.LifetimeMonths) },
		func(r *Result) (float64, bool) { return r.LifetimeMonths, true }},
	{"ci_use_scale", func(r *Result) string { return fmt.Sprintf("%g", r.CIUseScale) },
		func(r *Result) (float64, bool) { return r.CIUseScale, true }},
	{"yield_d0", oracleLabelPtr(func(r *Result) *float64 { return r.YieldD0 }),
		oracleNumPtr(func(r *Result) *float64 { return r.YieldD0 })},
	{"m3d_yield", oracleLabelPtr(func(r *Result) *float64 { return r.M3DYield }),
		oracleNumPtr(func(r *Result) *float64 { return r.M3DYield })},
	{"m3d_embodied_scale", oracleLabelPtr(func(r *Result) *float64 { return r.M3DEmbodiedScale }),
		oracleNumPtr(func(r *Result) *float64 { return r.M3DEmbodiedScale })},
}

func oracleLabelPtr(get func(*Result) *float64) func(*Result) string {
	return func(r *Result) string {
		if p := get(r); p != nil {
			return fmt.Sprintf("%g", *p)
		}
		return "-"
	}
}

func oracleNumPtr(get func(*Result) *float64) func(*Result) (float64, bool) {
	return func(r *Result) (float64, bool) {
		if p := get(r); p != nil {
			return *p, true
		}
		return 0, false
	}
}

func sensitivityOracle(results []Result, metric string) ([]AxisSensitivity, error) {
	if !ValidMetric(metric) {
		return nil, fmt.Errorf("dse: unknown metric %q", metric)
	}
	var feasible []*Result
	var grand float64
	for i := range results {
		if results[i].Feasible {
			feasible = append(feasible, &results[i])
			v, _ := results[i].Metric(metric)
			grand += v
		}
	}
	if len(feasible) == 0 {
		return nil, fmt.Errorf("dse: no feasible results")
	}
	grand /= float64(len(feasible))

	var out []AxisSensitivity
	for _, ax := range oracleAxes {
		levels := map[string][]float64{}
		var order []string
		for _, r := range feasible {
			l := ax.label(r)
			if _, seen := levels[l]; !seen {
				order = append(order, l)
			}
			v, _ := r.Metric(metric)
			levels[l] = append(levels[l], v)
		}
		if len(levels) < 2 {
			continue
		}
		s := AxisSensitivity{Axis: ax.name, Levels: len(levels)}
		if len(levels) <= maxLevelTable {
			var lo, hi float64
			for i, l := range order {
				var m float64
				for _, v := range levels[l] {
					m += v
				}
				m /= float64(len(levels[l]))
				if i == 0 || m < lo {
					lo, s.Best = m, l
				}
				if i == 0 || m > hi {
					hi, s.Worst = m, l
				}
			}
			s.Spread = hi - lo
			if grand != 0 {
				s.SpreadRel = s.Spread / math.Abs(grand)
			}
		}
		if ax.numeric != nil {
			s.Corr = pearsonOracle(feasible, ax.numeric, metric)
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(a, b int) bool {
		sa, sb := out[a].SpreadRel, out[b].SpreadRel
		if sa != sb {
			return sa > sb
		}
		return math.Abs(out[a].Corr) > math.Abs(out[b].Corr)
	})
	return out, nil
}

func pearsonOracle(results []*Result, value func(*Result) (float64, bool), metric string) float64 {
	var xs, ys []float64
	for _, r := range results {
		x, ok := value(r)
		if !ok {
			continue
		}
		y, _ := r.Metric(metric)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func groupKeyOracle(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%g|%g|%g|%d", r.Workload, r.Grid, r.ClockMHz, r.LifetimeMonths, r.CIUseScale, r.Replica)
	for _, p := range []*float64{r.YieldD0, r.M3DYield, r.M3DEmbodiedScale} {
		if p == nil {
			sb.WriteString("|-")
		} else {
			fmt.Fprintf(&sb, "|%g", *p)
		}
	}
	return sb.String()
}

func winnersOracle(results []Result, obj Objective) (*WinnerSummary, error) {
	if !ValidMetric(obj.Metric) {
		return nil, fmt.Errorf("dse: unknown metric %q", obj.Metric)
	}
	groups := map[string][]*Result{}
	var order []string
	for i := range results {
		k := groupKeyOracle(&results[i])
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], &results[i])
	}
	w := &WinnerSummary{
		Metric: obj.Metric, Maximize: obj.Maximize,
		Wins: map[string]int{}, Probability: map[string]float64{},
	}
	for _, k := range order {
		var best *Result
		var bestV float64
		tie := false
		for _, r := range groups[k] {
			if !r.Feasible {
				continue
			}
			v, _ := r.Metric(obj.Metric)
			if obj.Maximize {
				v = -v
			}
			switch {
			case best == nil || v < bestV:
				best, bestV, tie = r, v, false
			case v == bestV:
				tie = true
			}
		}
		if best == nil {
			continue
		}
		w.Groups++
		if tie {
			w.Ties++
			continue
		}
		w.Wins[best.System]++
	}
	if w.Groups == 0 {
		return nil, fmt.Errorf("dse: no feasible results")
	}
	for sys, n := range w.Wins {
		w.Probability[sys] = float64(n) / float64(w.Groups)
	}
	return w, nil
}

// randomAnalysisCase draws results over every axis, with either a few
// levels per axis (level tables, paired coordinates, tied winners) or
// continuous draws (sampled axes), signed zeros, unset pointer axes and
// ~10% infeasible points.
func randomAnalysisCase(rng *rand.Rand, n int) []Result {
	levels := 1 + rng.Intn(4)
	if rng.Intn(3) == 0 {
		levels = 40
	}
	num := func() float64 {
		if levels == 40 {
			return rng.NormFloat64() * 100
		}
		return []float64{0, math.Copysign(0, -1), 0.1, 2.5e-7, 1e21}[rng.Intn(levels)]
	}
	ptr := func() *float64 {
		if rng.Intn(3) == 0 {
			return nil
		}
		v := num()
		return &v
	}
	names := []string{"si", "m3d", "alt"}
	results := make([]Result, n)
	for i := range results {
		r := Result{
			Index: i, Replica: rng.Intn(3),
			System:   names[rng.Intn(1+rng.Intn(3))],
			Workload: []string{"huff", "crc32"}[rng.Intn(2)],
			Grid:     []string{"US", "Coal", "x"}[rng.Intn(1+rng.Intn(3))],
			ClockMHz: num(), LifetimeMonths: num(), CIUseScale: num(),
			YieldD0: ptr(), M3DYield: ptr(), M3DEmbodiedScale: ptr(),
			Feasible: rng.Intn(10) != 0,
		}
		r.GridGPerKWh = float64(len(r.Grid)) * 100
		if r.Feasible {
			r.TCG = float64(rng.Intn(4))
			r.ExecTimeS = rng.Float64()
		}
		results[i] = r
	}
	return results
}

// TestAnalysesMatchOracle pins Sensitivity and Winners — their values
// and their formatted reports — to the fmt-keyed implementations.
func TestAnalysesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		results := randomAnalysisCase(rng, 1+rng.Intn(300))
		for _, metric := range []string{"tc_g", "exec_time_s"} {
			want, wantErr := sensitivityOracle(results, metric)
			got, err := Sensitivity(results, metric)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Sensitivity(%s) = %+v, %v; oracle %+v, %v", trial, metric, got, err, want, wantErr)
			}
			if FormatSensitivity(got, metric) != FormatSensitivity(want, metric) {
				t.Fatalf("trial %d: FormatSensitivity differs", trial)
			}
			for _, max := range []bool{false, true} {
				obj := Objective{Metric: metric, Maximize: max}
				want, wantErr := winnersOracle(results, obj)
				got, err := Winners(results, obj)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: Winners(%+v) = %+v, %v; oracle %+v, %v", trial, obj, got, err, want, wantErr)
				}
				if got != nil && FormatWinners(got) != FormatWinners(want) {
					t.Fatalf("trial %d: FormatWinners differs", trial)
				}
			}
		}
	}
}

// TestAnalysesMatchOracleOnSweep runs the same comparison on a real
// Monte Carlo sweep.
func TestAnalysesMatchOracleOnSweep(t *testing.T) {
	results, err := Run(context.Background(), mcSpec(16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"tc_g", "tcdp_gs"} {
		want, _ := sensitivityOracle(results, metric)
		got, err := Sensitivity(results, metric)
		if err != nil || FormatSensitivity(got, metric) != FormatSensitivity(want, metric) {
			t.Errorf("Sensitivity(%s) differs from the oracle (err %v)", metric, err)
		}
		obj := Objective{Metric: metric}
		wantW, _ := winnersOracle(results, obj)
		gotW, err := Winners(results, obj)
		if err != nil || FormatWinners(gotW) != FormatWinners(wantW) {
			t.Errorf("Winners(%s) differs from the oracle (err %v)", metric, err)
		}
	}
}

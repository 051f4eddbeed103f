package dse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Frontier extracts the Pareto-optimal subset of the feasible results
// under the given objectives (each minimized unless Maximize). A point
// is kept when no other feasible point is at least as good on every
// objective and strictly better on one. The frontier is returned sorted
// by the first objective (best first); input order breaks ties, so the
// output is deterministic. A feasible result with a NaN or infinite
// objective value is an error: it would be neither better nor worse
// than anything.
//
// The search is a sort-filter skyline: points sorted lexicographically
// by score vector can only be dominated by points before them, so each
// point is tested against the frontier kept so far. Two objectives
// need just a running minimum of the second score, which makes the
// common case O(n log n) however large the frontier.
func Frontier(results []Result, objectives []Objective) ([]Result, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("dse: frontier needs at least one objective")
	}
	gets := make([]func(*Result) float64, len(objectives))
	for j, o := range objectives {
		if gets[j] = metricGetter(o.Metric); gets[j] == nil {
			return nil, fmt.Errorf("dse: unknown objective metric %q", o.Metric)
		}
	}
	// Canonicalize to minimization: score = value, negated for Maximize.
	// Row k of the flat scores belongs to results[feasible[k]].
	m := len(objectives)
	var feasible []int
	var scores []float64
	for i := range results {
		r := &results[i]
		if !r.Feasible {
			continue
		}
		for j, o := range objectives {
			v := gets[j](r)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dse: point %d has non-finite objective %s = %g", r.Index, o.Metric, v)
			}
			if o.Maximize {
				v = -v
			}
			scores = append(scores, v)
		}
		feasible = append(feasible, i)
	}
	row := func(k int) []float64 { return scores[k*m : (k+1)*m] }

	// Sort row numbers by score vector, input order breaking ties.
	order := make([]int, len(feasible))
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := row(a), row(b)
		for j := range ra {
			if ra[j] != rb[j] {
				return cmp.Compare(ra[j], rb[j])
			}
		}
		return cmp.Compare(a, b)
	})

	var keep []int
	if m == 2 {
		keep = skyline2(order, scores)
	} else {
		keep = skylineN(order, row)
	}
	// Kept rows in sorted order agree on the first score within a run,
	// but not necessarily on the rest: restore input order within runs.
	slices.SortFunc(keep, func(a, b int) int {
		if sa, sb := scores[a*m], scores[b*m]; sa != sb {
			return cmp.Compare(sa, sb)
		}
		return cmp.Compare(a, b)
	})
	front := make([]Result, len(keep))
	for i, k := range keep {
		front[i] = results[feasible[k]]
	}
	return front, nil
}

// skyline2 filters two-objective rows, given in lexicographic order. A
// row is dominated by an earlier row with a smaller first score and a
// second score no larger, or by one with an equal first score and a
// smaller second score — the first row of its run. Exact duplicates
// never dominate each other, so all copies of a kept vector are kept.
func skyline2(order []int, scores []float64) []int {
	var keep []int
	best := math.Inf(1) // least second score over earlier runs
	for lo := 0; lo < len(order); {
		first := scores[2*order[lo]]
		runMin := scores[2*order[lo]+1]
		hi := lo
		for ; hi < len(order) && scores[2*order[hi]] == first; hi++ {
			k := order[hi]
			if s := scores[2*k+1]; s < best && s == runMin {
				keep = append(keep, k)
			}
		}
		best = math.Min(best, runMin)
		lo = hi
	}
	return keep
}

// skylineN filters rows of any width, given in lexicographic order: a
// row is tested against the distinct vectors kept so far, since any
// dominator sorts before the row it dominates and domination is
// transitive. Exact duplicates, adjacent after the sort, share the
// verdict of the first copy — a Monte Carlo sweep whose objectives
// ignore the sampled axes is almost all duplicates.
func skylineN(order []int, row func(int) []float64) []int {
	var keep, distinct []int
	kept := false
	for i, k := range order {
		if i > 0 && slices.Equal(row(k), row(order[i-1])) {
			if kept {
				keep = append(keep, k)
			}
			continue
		}
		kept = true
		for _, d := range distinct {
			if dominates(row(d), row(k)) {
				kept = false
				break
			}
		}
		if kept {
			keep = append(keep, k)
			distinct = append(distinct, k)
		}
	}
	return keep
}

// dominates reports whether score vector a Pareto-dominates b (all
// minimized): a is no worse everywhere and strictly better somewhere.
func dominates(a, b []float64) bool {
	better := false
	for j := range a {
		if a[j] > b[j] {
			return false
		}
		if a[j] < b[j] {
			better = true
		}
	}
	return better
}

// FormatFrontier renders the frontier as an aligned text table over the
// objective metrics plus the identifying coordinate.
func FormatFrontier(front []Result, objectives []Objective) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pareto frontier (%d points)\n", len(front))
	header := []string{"index", "system", "workload", "grid", "clock_mhz"}
	for _, o := range objectives {
		dir := "min"
		if o.Maximize {
			dir = "max"
		}
		header = append(header, fmt.Sprintf("%s(%s)", o.Metric, dir))
	}
	rows := [][]string{header}
	for i := range front {
		r := &front[i]
		row := []string{
			fmt.Sprintf("%d", r.Index), r.System, r.Workload, r.Grid,
			fmt.Sprintf("%.1f", r.ClockMHz),
		}
		for _, o := range objectives {
			v, _ := r.Metric(o.Metric)
			row = append(row, fmt.Sprintf("%.4g", v))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for j, cell := range row {
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for j, cell := range row {
			if j > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[j], cell)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

package dse

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// axis is one dimension a Result can vary over: a level key per point,
// a label per level and (for numeric axes) the raw value for
// correlation. Levels are counted by key; only axes small enough for a
// level table format their labels.
type axis struct {
	name    string
	key     func(*Result) levelKey
	label   func(*Result) string
	numeric func(*Result) (float64, bool)
}

// levelKey identifies one level of an axis without formatting it: the
// string of a categorical axis, or the bits of a numeric one.
type levelKey struct {
	s string
	v optBits
}

// axisValues enumerates the axes in report order.
var axisValues = []axis{
	stringAxis("system", func(r *Result) string { return r.System }, nil),
	stringAxis("workload", func(r *Result) string { return r.Workload }, nil),
	stringAxis("grid", func(r *Result) string { return r.Grid },
		func(r *Result) (float64, bool) { return r.GridGPerKWh, true }),
	floatAxis("clock_mhz", func(r *Result) *float64 { return &r.ClockMHz }),
	floatAxis("lifetime_months", func(r *Result) *float64 { return &r.LifetimeMonths }),
	floatAxis("ci_use_scale", func(r *Result) *float64 { return &r.CIUseScale }),
	floatAxis("yield_d0", func(r *Result) *float64 { return r.YieldD0 }),
	floatAxis("m3d_yield", func(r *Result) *float64 { return r.M3DYield }),
	floatAxis("m3d_embodied_scale", func(r *Result) *float64 { return r.M3DEmbodiedScale }),
}

func stringAxis(name string, get func(*Result) string, numeric func(*Result) (float64, bool)) axis {
	return axis{name, func(r *Result) levelKey { return levelKey{s: get(r)} }, get, numeric}
}

// floatAxis is a numeric axis; get returns nil where it is unset, and
// unset points form the "-" level.
func floatAxis(name string, get func(*Result) *float64) axis {
	return axis{
		name,
		func(r *Result) levelKey { return levelKey{v: optFloat(get(r))} },
		func(r *Result) string {
			if p := get(r); p != nil {
				return formatG(*p)
			}
			return "-"
		},
		func(r *Result) (float64, bool) {
			if p := get(r); p != nil {
				return *p, true
			}
			return 0, false
		},
	}
}

// formatG renders v exactly as fmt's %g does.
func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// AxisSensitivity summarizes how much one axis moves a metric.
type AxisSensitivity struct {
	// Axis names the swept axis.
	Axis string
	// Levels is the number of distinct levels seen.
	Levels int
	// Spread is max−min of the per-level mean metric, and SpreadRel the
	// same relative to the grand mean. Zero when the axis has more than
	// maxLevelTable levels (Monte Carlo axes) — use Corr there instead.
	Spread    float64
	SpreadRel float64
	// Best and Worst are the level labels with the lowest and highest
	// mean metric (empty when Spread is not computed).
	Best, Worst string
	// Corr is the Pearson correlation between the axis value and the
	// metric (numeric axes only; 0 for categorical axes).
	Corr float64
}

// maxLevelTable caps per-level mean tables; axes with more levels are
// Monte Carlo draws, where level means are single observations.
const maxLevelTable = 16

// Sensitivity ranks the swept axes by their influence on one metric,
// over the feasible results. Fixed axes (one level) are omitted. Axes
// with few levels get a per-level mean contrast (the Fig. 6b view);
// densely sampled axes get a Pearson correlation instead.
func Sensitivity(results []Result, metric string) ([]AxisSensitivity, error) {
	get := metricGetter(metric)
	if get == nil {
		return nil, fmt.Errorf("dse: unknown metric %q", metric)
	}
	var feasible []*Result
	var ys []float64
	var grand float64
	for i := range results {
		if results[i].Feasible {
			feasible = append(feasible, &results[i])
			v := get(&results[i])
			ys = append(ys, v)
			grand += v
		}
	}
	if len(feasible) == 0 {
		return nil, fmt.Errorf("dse: no feasible results")
	}
	grand /= float64(len(feasible))

	// level accumulates one axis level in first-seen order.
	type level struct {
		first *Result
		sum   float64
		n     int
	}
	var out []AxisSensitivity
	for _, ax := range axisValues {
		index := map[levelKey]int{}
		var levels []level
		for i, r := range feasible {
			k := ax.key(r)
			l, seen := index[k]
			if !seen {
				l = len(levels)
				index[k] = l
				levels = append(levels, level{first: r})
			}
			levels[l].sum += ys[i]
			levels[l].n++
		}
		if len(levels) < 2 {
			continue
		}
		s := AxisSensitivity{Axis: ax.name, Levels: len(levels)}
		if len(levels) <= maxLevelTable {
			var lo, hi float64
			for i, l := range levels {
				m := l.sum / float64(l.n)
				if i == 0 || m < lo {
					lo, s.Best = m, ax.label(l.first)
				}
				if i == 0 || m > hi {
					hi, s.Worst = m, ax.label(l.first)
				}
			}
			s.Spread = hi - lo
			if grand != 0 {
				s.SpreadRel = s.Spread / math.Abs(grand)
			}
		}
		if ax.numeric != nil {
			s.Corr = pearson(feasible, ys, ax.numeric)
		}
		out = append(out, s)
	}
	// Most influential first: by relative spread, then |corr|.
	sort.SliceStable(out, func(a, b int) bool {
		sa, sb := out[a].SpreadRel, out[b].SpreadRel
		if sa != sb {
			return sa > sb
		}
		return math.Abs(out[a].Corr) > math.Abs(out[b].Corr)
	})
	return out, nil
}

// pearson computes the correlation between an axis value and the
// metric values ys (one per result) over the results where the axis is
// set, in two passes that copy nothing.
func pearson(results []*Result, ys []float64, value func(*Result) (float64, bool)) float64 {
	var n, mx, my float64
	for i, r := range results {
		if x, ok := value(r); ok {
			n++
			mx += x
			my += ys[i]
		}
	}
	if n < 2 {
		return 0
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i, r := range results {
		x, ok := value(r)
		if !ok {
			continue
		}
		dx, dy := x-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// FormatSensitivity renders the sensitivity table.
func FormatSensitivity(sens []AxisSensitivity, metric string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sensitivity of %s\n", metric)
	for _, s := range sens {
		if s.Best != "" {
			fmt.Fprintf(&sb, "  %-20s %3d levels  spread %.4g (%.1f%%)  best %s  worst %s",
				s.Axis, s.Levels, s.Spread, 100*s.SpreadRel, s.Best, s.Worst)
		} else {
			fmt.Fprintf(&sb, "  %-20s %3d levels  sampled", s.Axis, s.Levels)
		}
		if s.Corr != 0 {
			fmt.Fprintf(&sb, "  corr %+.2f", s.Corr)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// WinnerSummary aggregates, per system, how often it wins a metric
// against the other systems at the same coordinate — the Monte Carlo
// win-probability of tcdp.MonteCarlo generalized to any sweep.
type WinnerSummary struct {
	// Metric and Maximize define the contest.
	Metric   string
	Maximize bool
	// Groups is the number of coordinates compared; Ties counts groups
	// with no strict winner.
	Groups, Ties int
	// Wins counts won groups per system; Probability is Wins/Groups.
	Wins        map[string]int
	Probability map[string]float64
}

// Winners pairs results across the system axis (same workload, grid,
// clock, lifetime, replica, …) and counts which system wins each
// coordinate on the objective. An infeasible system loses to any
// feasible one; coordinates with no feasible system are skipped.
func Winners(results []Result, obj Objective) (*WinnerSummary, error) {
	get := metricGetter(obj.Metric)
	if get == nil {
		return nil, fmt.Errorf("dse: unknown metric %q", obj.Metric)
	}
	// contest is one coordinate's running best, fed in input order.
	type contest struct {
		best  *Result
		bestV float64
		tie   bool
	}
	index := map[groupKey]int{}
	var contests []contest
	for i := range results {
		r := &results[i]
		k := r.groupKey()
		g, seen := index[k]
		if !seen {
			g = len(contests)
			index[k] = g
			contests = append(contests, contest{})
		}
		if !r.Feasible {
			continue
		}
		v := get(r)
		if obj.Maximize {
			v = -v
		}
		c := &contests[g]
		switch {
		case c.best == nil || v < c.bestV:
			c.best, c.bestV, c.tie = r, v, false
		case v == c.bestV:
			c.tie = true
		}
	}
	w := &WinnerSummary{
		Metric: obj.Metric, Maximize: obj.Maximize,
		Wins: map[string]int{}, Probability: map[string]float64{},
	}
	for _, c := range contests {
		if c.best == nil {
			continue // nothing feasible at this coordinate
		}
		w.Groups++
		if c.tie {
			w.Ties++
			continue
		}
		w.Wins[c.best.System]++
	}
	if w.Groups == 0 {
		return nil, fmt.Errorf("dse: no feasible results")
	}
	for sys, n := range w.Wins {
		w.Probability[sys] = float64(n) / float64(w.Groups)
	}
	return w, nil
}

// FormatWinners renders the win-probability summary.
func FormatWinners(w *WinnerSummary) string {
	var sb strings.Builder
	dir := "min"
	if w.Maximize {
		dir = "max"
	}
	fmt.Fprintf(&sb, "Winner on %s(%s) over %d coordinates", w.Metric, dir, w.Groups)
	if w.Ties > 0 {
		fmt.Fprintf(&sb, " (%d ties)", w.Ties)
	}
	sb.WriteByte('\n')
	systems := make([]string, 0, len(w.Wins))
	for sys := range w.Wins {
		systems = append(systems, sys)
	}
	sort.Slice(systems, func(a, b int) bool {
		if w.Wins[systems[a]] != w.Wins[systems[b]] {
			return w.Wins[systems[a]] > w.Wins[systems[b]]
		}
		return systems[a] < systems[b]
	})
	for _, sys := range systems {
		fmt.Fprintf(&sb, "  %-24s %5d wins  P(win) = %.3f\n", sys, w.Wins[sys], w.Probability[sys])
	}
	return sb.String()
}

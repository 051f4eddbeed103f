package dse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Result is one evaluated point: the resolved axis coordinate echoed
// back, plus the PPAtC and carbon-efficiency metrics. The JSON encoding
// is one NDJSON line of `ppatc sweep` and GET /v1/sweeps/{id}/results;
// field order is fixed, so identical sweeps are byte-identical.
type Result struct {
	Index   int `json:"index"`
	Replica int `json:"replica,omitempty"`

	System           string   `json:"system"`
	Workload         string   `json:"workload"`
	Grid             string   `json:"grid"`
	GridGPerKWh      float64  `json:"grid_g_per_kwh"`
	ClockMHz         float64  `json:"clock_mhz"`
	LifetimeMonths   float64  `json:"lifetime_months"`
	CIUseScale       float64  `json:"ci_use_scale"`
	YieldD0          *float64 `json:"yield_d0,omitempty"`
	M3DYield         *float64 `json:"m3d_yield,omitempty"`
	M3DEmbodiedScale *float64 `json:"m3d_embodied_scale,omitempty"`

	// Feasible is false when the point fails timing closure (a sweep
	// datum, not an error) — its metrics are zero and Error explains.
	Feasible bool   `json:"feasible"`
	Error    string `json:"error,omitempty"`

	Cycles             uint64  `json:"cycles,omitempty"`
	ExecTimeS          float64 `json:"exec_time_s,omitempty"`
	OperationalPowerMW float64 `json:"operational_power_mw,omitempty"`
	TotalAreaMM2       float64 `json:"total_area_mm2,omitempty"`
	EmbodiedWaferKG    float64 `json:"embodied_per_wafer_kg,omitempty"`
	EmbodiedGoodDieG   float64 `json:"embodied_per_good_die_g,omitempty"`
	DiesPerWafer       int     `json:"dies_per_wafer,omitempty"`
	Yield              float64 `json:"yield,omitempty"`
	TCG                float64 `json:"tc_g,omitempty"`
	TCDPGS             float64 `json:"tcdp_gs,omitempty"`
}

// metricKeys maps every addressable metric to its accessor, in the order
// MetricKeys reports.
var metricKeys = []struct {
	key string
	get func(*Result) float64
}{
	{"exec_time_s", func(r *Result) float64 { return r.ExecTimeS }},
	{"operational_power_mw", func(r *Result) float64 { return r.OperationalPowerMW }},
	{"total_area_mm2", func(r *Result) float64 { return r.TotalAreaMM2 }},
	{"embodied_per_wafer_kg", func(r *Result) float64 { return r.EmbodiedWaferKG }},
	{"embodied_per_good_die_g", func(r *Result) float64 { return r.EmbodiedGoodDieG }},
	{"dies_per_wafer", func(r *Result) float64 { return float64(r.DiesPerWafer) }},
	{"yield", func(r *Result) float64 { return r.Yield }},
	{"tc_g", func(r *Result) float64 { return r.TCG }},
	{"tcdp_gs", func(r *Result) float64 { return r.TCDPGS }},
	{"cycles", func(r *Result) float64 { return float64(r.Cycles) }},
	{"clock_mhz", func(r *Result) float64 { return r.ClockMHz }},
	{"grid_g_per_kwh", func(r *Result) float64 { return r.GridGPerKWh }},
	{"lifetime_months", func(r *Result) float64 { return r.LifetimeMonths }},
}

// MetricKeys lists the metric names addressable by objectives,
// sensitivity and winner analyses.
func MetricKeys() []string {
	out := make([]string, len(metricKeys))
	for i, m := range metricKeys {
		out[i] = m.key
	}
	return out
}

// ValidMetric reports whether key names a Result metric.
func ValidMetric(key string) bool { return metricGetter(key) != nil }

// metricGetter resolves a metric key to its accessor once, so the
// analyses don't scan metricKeys per point; nil for unknown keys.
func metricGetter(key string) func(*Result) float64 {
	for _, m := range metricKeys {
		if m.key == key {
			return m.get
		}
	}
	return nil
}

// Metric reads one metric by key; ok is false for unknown keys.
func (r *Result) Metric(key string) (v float64, ok bool) {
	if get := metricGetter(key); get != nil {
		return get(r), true
	}
	return 0, false
}

// optBits is an optional float axis value compared by bits: set is
// false when the axis is unset.
type optBits struct {
	set  bool
	bits uint64
}

func optFloat(p *float64) optBits {
	if p == nil {
		return optBits{}
	}
	return optBits{set: true, bits: floatBits(*p)}
}

// floatBits keys a float by its bits, with every NaN folded into one
// key, so two values share a key exactly when their %g labels match.
func floatBits(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// groupKey identifies a point's coordinate with the system axis erased
// — results sharing a key are paired observations of different systems.
type groupKey struct {
	workload, grid                      string
	clock, lifetime, ciUseScale         uint64
	replica                             int
	yieldD0, m3dYield, m3dEmbodiedScale optBits
}

func (r *Result) groupKey() groupKey {
	return groupKey{
		workload: r.Workload, grid: r.Grid,
		clock: floatBits(r.ClockMHz), lifetime: floatBits(r.LifetimeMonths),
		ciUseScale: floatBits(r.CIUseScale), replica: r.Replica,
		yieldD0: optFloat(r.YieldD0), m3dYield: optFloat(r.M3DYield),
		m3dEmbodiedScale: optFloat(r.M3DEmbodiedScale),
	}
}

// MarshalLine encodes the result as one compact NDJSON line (with the
// trailing newline).
func (r *Result) MarshalLine() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteNDJSON streams results as newline-delimited JSON.
func WriteNDJSON(w io.Writer, results []Result) error {
	bw := bufio.NewWriter(w)
	for i := range results {
		line, err := results[i].MarshalLine()
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON decodes a stream written by WriteNDJSON.
func ReadNDJSON(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var res Result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("dse: bad NDJSON line: %w", err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

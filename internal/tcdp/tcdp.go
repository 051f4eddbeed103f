// Package tcdp implements the carbon-efficiency analyses of the paper's
// Sec. III-C/D: total carbon (tC) versus system lifetime (Fig. 5), the
// total-carbon-delay-product metric tCDP = tC × application execution time,
// the tCDP isoline separating regimes where the M3D or the all-Si design is
// more carbon-efficient (Fig. 6a), and the isoline's sensitivity to
// uncertainty in lifetime, use-phase carbon intensity and yield (Fig. 6b).
package tcdp

import (
	"errors"
	"fmt"

	"ppatc/internal/carbon"
	"ppatc/internal/units"
)

// DesignPoint is the lifetime-analysis summary of one evaluated system.
type DesignPoint struct {
	// Name identifies the design.
	Name string
	// Embodied is the per-good-die embodied carbon.
	Embodied units.Carbon
	// Power is the operational power while running.
	Power units.Power
	// ExecTime is the application execution time in seconds (cycles/f).
	ExecTime float64
	// Yield is the die yield behind Embodied, kept so uncertainty
	// analyses can re-amortize under different yields.
	Yield float64
}

// Validate checks the point.
func (d DesignPoint) Validate() error {
	switch {
	case d.Embodied <= 0:
		return fmt.Errorf("tcdp %s: embodied carbon must be positive", d.Name)
	case d.Power <= 0:
		return fmt.Errorf("tcdp %s: power must be positive", d.Name)
	case d.ExecTime <= 0:
		return fmt.Errorf("tcdp %s: execution time must be positive", d.Name)
	case d.Yield <= 0 || d.Yield > 1:
		return fmt.Errorf("tcdp %s: yield must be in (0, 1]", d.Name)
	}
	return nil
}

// Scenario fixes the usage pattern shape and CI_use profile; the lifetime
// is supplied per query so a single scenario sweeps Fig. 5's x-axis.
type Scenario struct {
	// StartHour and HoursPerDay define the daily usage window.
	StartHour, HoursPerDay float64
	// Profile is the CI_use(t) shape.
	Profile carbon.Profile
}

// PaperScenario is the case study's scenario: 2 hours per day from 8 pm on
// the (flat) US grid.
func PaperScenario() Scenario {
	return Scenario{StartHour: 20, HoursPerDay: 2, Profile: carbon.Flat(carbon.GridUS)}
}

// Usage builds the carbon.UsagePattern for a lifetime.
func (s Scenario) Usage(life units.Months) carbon.UsagePattern {
	return carbon.UsagePattern{StartHour: s.StartHour, HoursPerDay: s.HoursPerDay, Lifetime: life}
}

// TC evaluates the total carbon of a design point at the given lifetime.
func TC(d DesignPoint, s Scenario, life units.Months) (carbon.Total, error) {
	if err := d.Validate(); err != nil {
		return carbon.Total{}, err
	}
	op, err := carbon.Operational(d.Power, s.Usage(life), s.Profile)
	if err != nil {
		return carbon.Total{}, err
	}
	return carbon.Total{Embodied: d.Embodied, Operational: op}, nil
}

// TCDP evaluates the total-carbon-delay product at the given lifetime, in
// gCO2e·s (equivalently gCO2e/Hz at fixed cycle count, the paper's unit).
func TCDP(d DesignPoint, s Scenario, life units.Months) (float64, error) {
	tc, err := TC(d, s, life)
	if err != nil {
		return 0, err
	}
	return tc.TC().Grams() * d.ExecTime, nil
}

// Series is the per-month trace behind Fig. 5.
type Series struct {
	// Name echoes the design.
	Name string
	// Months are the sample lifetimes (1..N).
	Months []float64
	// Embodied, Operational and TCSeries are in gCO2e; TCDPSeries is in
	// gCO2e·s.
	Embodied, Operational, TCSeries, TCDPSeries []float64
}

// Lifetime computes the Fig. 5 series for a design over 1..maxMonths.
func Lifetime(d DesignPoint, s Scenario, maxMonths int) (Series, error) {
	if maxMonths <= 0 {
		return Series{}, errors.New("tcdp: need a positive month count")
	}
	out := Series{Name: d.Name}
	for m := 1; m <= maxMonths; m++ {
		tc, err := TC(d, s, units.Months(m))
		if err != nil {
			return Series{}, err
		}
		tcdp, err := TCDP(d, s, units.Months(m))
		if err != nil {
			return Series{}, err
		}
		out.Months = append(out.Months, float64(m))
		out.Embodied = append(out.Embodied, tc.Embodied.Grams())
		out.Operational = append(out.Operational, tc.Operational.Grams())
		out.TCSeries = append(out.TCSeries, tc.TC().Grams())
		out.TCDPSeries = append(out.TCDPSeries, tcdp)
	}
	return out, nil
}

// operationalRate reports the operational carbon per month of a design
// under a scenario (grams/month); the closed form of Eq. 8 is linear in
// lifetime, so the rate is constant.
func operationalRate(d DesignPoint, s Scenario) (float64, error) {
	tc, err := TC(d, s, 1)
	if err != nil {
		return 0, err
	}
	return tc.Operational.Grams(), nil
}

// EmbodiedOperationalCrossover reports the lifetime (months) at which the
// operational carbon overtakes the embodied carbon — 14 months for the
// all-Si design and 19 for the M3D design in Fig. 5.
func EmbodiedOperationalCrossover(d DesignPoint, s Scenario) (units.Months, error) {
	rate, err := operationalRate(d, s)
	if err != nil {
		return 0, err
	}
	if rate <= 0 {
		return 0, errors.New("tcdp: operational rate must be positive")
	}
	return units.Months(d.Embodied.Grams() / rate), nil
}

// DesignCrossover reports the lifetime at which two designs' total carbon
// curves intersect. It returns an error when the curves never cross (one
// design dominates at every lifetime).
func DesignCrossover(a, b DesignPoint, s Scenario) (units.Months, error) {
	ra, err := operationalRate(a, s)
	if err != nil {
		return 0, err
	}
	rb, err := operationalRate(b, s)
	if err != nil {
		return 0, err
	}
	dEmb := b.Embodied.Grams() - a.Embodied.Grams()
	dRate := ra - rb
	if dRate == 0 {
		return 0, errors.New("tcdp: identical operational rates never cross")
	}
	m := dEmb / dRate
	if m <= 0 {
		return 0, errors.New("tcdp: curves do not cross at a positive lifetime")
	}
	return units.Months(m), nil
}

// Ratio reports tCDP(a)/tCDP(b) at a lifetime — the "M3D is 1.02× more
// carbon-efficient" headline is Ratio(allSi, m3d, s, 24).
func Ratio(a, b DesignPoint, s Scenario, life units.Months) (float64, error) {
	ta, err := TCDP(a, s, life)
	if err != nil {
		return 0, err
	}
	tb, err := TCDP(b, s, life)
	if err != nil {
		return 0, err
	}
	if tb == 0 {
		return 0, errors.New("tcdp: zero denominator")
	}
	return ta / tb, nil
}

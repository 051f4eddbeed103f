package carbon

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ppatc/internal/units"
)

// UsagePattern describes when and how long the system runs each day, the
// duty-cycle structure the paper encodes with the indicator function
// 𝕀_{8to10pm}(t) in Eq. 6. The paper's case study runs 2 hours per day,
// from 8 pm to 10 pm, over a 24-month lifetime.
type UsagePattern struct {
	// StartHour is the local hour of day the daily window opens.
	StartHour float64
	// HoursPerDay is the length of the daily window.
	HoursPerDay float64
	// Lifetime is the total calendar lifetime of the system.
	Lifetime units.Months
}

// PaperUsage is the paper's representative usage pattern: 2 hours per day
// (8 pm to 10 pm) over 24 months.
var PaperUsage = UsagePattern{StartHour: 20, HoursPerDay: 2, Lifetime: 24}

// Validate checks the pattern for sanity.
func (u UsagePattern) Validate() error {
	switch {
	case u.HoursPerDay <= 0 || u.HoursPerDay > 24:
		return errors.New("carbon: hours per day must be in (0, 24]")
	case u.StartHour < 0 || u.StartHour >= 24:
		return errors.New("carbon: start hour must be in [0, 24)")
	case u.Lifetime <= 0:
		return errors.New("carbon: lifetime must be positive")
	case !fitsDuration(u.OnHours()):
		return fmt.Errorf("carbon: lifetime of %g months at %g h/day exceeds the %.0f on-hours a time.Duration holds",
			float64(u.Lifetime), u.HoursPerDay, time.Duration(math.MaxInt64).Hours())
	}
	return nil
}

// fitsDuration reports whether a span of hours converts to a
// time.Duration without wrapping negative (the limit is about 292
// years). Operational and OperationalWithStandby make that conversion.
func fitsDuration(hours float64) bool {
	return hours*float64(time.Hour) < math.MaxInt64
}

// DutyCycle reports the fraction of wall-clock time the system is on
// (the paper's "2 hours/day ÷ 24 hours/day" factor in Eq. 8).
func (u UsagePattern) DutyCycle() float64 { return u.HoursPerDay / units.HoursPerDay }

// EndHour reports the closing hour of the daily window, possibly ≥ 24 when
// the window wraps midnight.
func (u UsagePattern) EndHour() float64 { return u.StartHour + u.HoursPerDay }

// OnHours reports the total powered-on hours across the lifetime.
func (u UsagePattern) OnHours() float64 {
	return u.Lifetime.Hours() * u.DutyCycle()
}

// Operational evaluates Eq. 8 for a constant operating power:
//
//	C_operational = mean(CI_use over window) · P · t_life · duty.
//
// The profile supplies CI_use(t); its average over the daily usage window is
// the CI̅_use,window term of Eq. 8.
func Operational(p units.Power, u UsagePattern, profile Profile) (units.Carbon, error) {
	if err := u.Validate(); err != nil {
		return 0, err
	}
	if p < 0 {
		return 0, errors.New("carbon: power must be non-negative")
	}
	ci := MeanWindow(profile, u.StartHour, u.EndHour())
	energy := p.Times(time.Duration(u.OnHours() * float64(time.Hour)))
	return ci.Apply(energy), nil
}

// OperationalIntegral evaluates the general form of Eq. 1/Eq. 7 by direct
// numerical integration of CI_use(t)·P·𝕀_window(t) dt over the lifetime,
// stepping at the given resolution. It converges to Operational for
// piecewise-constant profiles and exists so that callers can check the
// closed form (Eq. 8) against the definition (Eq. 1).
func OperationalIntegral(p units.Power, u UsagePattern, profile Profile, step time.Duration) (units.Carbon, error) {
	if err := u.Validate(); err != nil {
		return 0, err
	}
	if p < 0 {
		return 0, errors.New("carbon: power must be non-negative")
	}
	if step <= 0 {
		return 0, errors.New("carbon: integration step must be positive")
	}
	totalHours := u.Lifetime.Hours()
	stepHours := step.Hours()
	var grams float64
	for t := 0.0; t < totalHours; t += stepHours {
		h := stepHours
		if t+h > totalHours {
			h = totalHours - t
		}
		mid := t + h/2
		hourOfDay := mid - 24*float64(int(mid/24))
		if !inWindow(hourOfDay, u.StartHour, u.EndHour()) {
			continue
		}
		ci := profile.At(hourOfDay)
		e := p.Times(time.Duration(h * float64(time.Hour)))
		grams += ci.Apply(e).Grams()
	}
	return units.GramsCO2e(grams), nil
}

// inWindow reports whether hour (in [0,24)) falls inside the daily window
// [start, end), handling windows that wrap midnight (end may exceed 24).
func inWindow(hour, start, end float64) bool {
	if end <= 24 {
		return hour >= start && hour < end
	}
	return hour >= start || hour < end-24
}

// OperationalPower lumps the time-independent terms of Eq. 6 into a single
// operating power:
//
//	P_operational = P_static + (E_dynM0 + E_mem) / T_clk    (per cycle terms)
//
// given the M0 static power, the per-cycle dynamic energy of the core, the
// per-cycle operational energy of the memories, and the clock frequency.
func OperationalPower(static units.Power, dynPerCycle, memPerCycle units.Energy, clk units.Frequency) units.Power {
	if clk == 0 {
		return static
	}
	perCycle := float64(dynPerCycle) + float64(memPerCycle)
	return static + units.Power(perCycle*float64(clk))
}

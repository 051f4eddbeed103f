package carbon

import (
	"errors"
	"fmt"
	"time"

	"ppatc/internal/units"
)

// State-preserving standby. The paper's Eq. 6 assumes the system is
// entirely off outside its usage window. Many embedded deployments
// instead sleep with state retained — and there the memory technology
// choice bites hardest: a Si gain-cell eDRAM must keep refreshing through
// standby, while the IGZO cell's >10⁵ s retention lets the M3D design
// power-gate everything and simply resume. OperationalWithStandby extends
// Eq. 8 with a standby term:
//
//	C_op = CI̅_window · P_active · t_on  +  CI̅_complement · P_standby · t_off.

// OperationalWithStandby evaluates the extended operational carbon. The
// usage pattern defines the active window; the rest of each day runs at
// the standby power.
func OperationalWithStandby(active, standby units.Power, u UsagePattern, profile Profile) (units.Carbon, error) {
	if err := u.Validate(); err != nil {
		return 0, err
	}
	if active < 0 || standby < 0 {
		return 0, errors.New("carbon: powers must be non-negative")
	}
	onCarbon, err := Operational(active, u, profile)
	if err != nil {
		return 0, err
	}
	offHoursPerDay := units.HoursPerDay - u.HoursPerDay
	if offHoursPerDay <= 0 {
		return onCarbon, nil
	}
	// Complement window: from the end of the active window around to its
	// start, so the standby CI average covers the right hours of day.
	ciOff := MeanWindow(profile, u.EndHour(), u.StartHour+24)
	offHours := u.Lifetime.Hours() * offHoursPerDay / units.HoursPerDay
	if !fitsDuration(offHours) {
		return 0, fmt.Errorf("carbon: lifetime of %g months leaves more standby hours than a time.Duration holds", float64(u.Lifetime))
	}
	offEnergy := standby.Times(time.Duration(offHours * float64(time.Hour)))
	return onCarbon + ciOff.Apply(offEnergy), nil
}

// StandbyBreakEven reports the standby power (W) at which a design's
// lifetime operational carbon doubles relative to the off-when-idle
// assumption — a quick figure of merit for how much sleep power a
// deployment can tolerate before standby dominates.
func StandbyBreakEven(active units.Power, u UsagePattern, profile Profile) (units.Power, error) {
	if err := u.Validate(); err != nil {
		return 0, err
	}
	if active <= 0 {
		return 0, errors.New("carbon: active power must be positive")
	}
	onCarbon, err := Operational(active, u, profile)
	if err != nil {
		return 0, err
	}
	offHoursPerDay := units.HoursPerDay - u.HoursPerDay
	if offHoursPerDay <= 0 {
		return 0, errors.New("carbon: pattern has no standby time")
	}
	ciOff := MeanWindow(profile, u.EndHour(), u.StartHour+24)
	if ciOff <= 0 {
		return 0, errors.New("carbon: standby-window intensity must be positive")
	}
	offHours := u.Lifetime.Hours() * offHoursPerDay / units.HoursPerDay
	// Solve ciOff · P · offHours·3600 = onCarbon.
	grams := onCarbon.Grams()
	watts := grams / (float64(ciOff) * offHours * 3600)
	return units.Watts(watts), nil
}

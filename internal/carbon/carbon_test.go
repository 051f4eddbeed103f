package carbon

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ppatc/internal/units"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

var waferArea = units.SquareCentimeters(math.Pi * 15 * 15)

func TestGridsCanonicalValues(t *testing.T) {
	want := map[string]float64{"US": 380, "Coal": 820, "Solar": 48, "Taiwan": 563}
	for _, g := range Grids() {
		if got := g.Intensity.GramsPerKilowattHour(); got != want[g.Name] {
			t.Errorf("grid %s intensity = %v, want %v", g.Name, got, want[g.Name])
		}
	}
	err := func() error {
		_, err := GridByName("Mars")
		return err
	}()
	if err == nil {
		t.Error("GridByName(Mars) should fail")
	} else {
		// The error must list the valid names so callers can self-correct.
		for _, name := range []string{"US", "Coal", "Solar", "Taiwan"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("GridByName error %q should mention %q", err, name)
			}
		}
	}
	g, err := GridByName("Taiwan")
	if err != nil || g.Name != "Taiwan" {
		t.Errorf("GridByName(Taiwan) = %v, %v", g, err)
	}
	// Lookups are case-insensitive but return the canonical name.
	for _, alias := range []string{"taiwan", "TAIWAN", "taiWAN"} {
		g, err := GridByName(alias)
		if err != nil || g.Name != "Taiwan" {
			t.Errorf("GridByName(%s) = %v, %v, want Taiwan", alias, g, err)
		}
	}
}

func TestEmbodiedPerWaferEq2(t *testing.T) {
	// Hand-computed example with the paper's anchors: all-Si process at
	// 704.7 kWh/wafer on the US grid.
	in := EmbodiedInputs{
		MPA:       units.GramsPerSquareCentimeter(500),
		GPA:       units.GramsPerSquareCentimeter(0.79 * 200),
		EPA:       units.KilowattHours(704.7),
		CIFab:     GridUS.Intensity,
		WaferArea: waferArea,
	}
	b, err := EmbodiedPerWafer(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Materials.Kilograms(); !almostEqual(got, 353.43, 1e-3) {
		t.Errorf("materials = %v kg, want ≈353.4", got)
	}
	if got := b.Gases.Kilograms(); !almostEqual(got, 111.68, 1e-3) {
		t.Errorf("gases = %v kg, want ≈111.7", got)
	}
	// Electricity: 704.7 kWh × 1.4 × 380 g/kWh = 374.9 kg.
	if got := b.Electricity.Kilograms(); !almostEqual(got, 374.9, 1e-3) {
		t.Errorf("electricity = %v kg, want ≈374.9", got)
	}
	if got := b.Total().Kilograms(); !almostEqual(got, 840.0, 1e-3) {
		t.Errorf("total = %v kg, want ≈840", got)
	}
	if got := b.EPAFacility.KilowattHours(); !almostEqual(got, 704.7*1.4, 1e-9) {
		t.Errorf("EPA_f = %v kWh, want 1.4×EPA", got)
	}
}

func TestEmbodiedFacilityFactorOverride(t *testing.T) {
	in := EmbodiedInputs{
		EPA: units.KilowattHours(100), CIFab: units.GramsPerKilowattHour(1000),
		WaferArea: waferArea, FacilityFactor: 1.0,
	}
	b, err := EmbodiedPerWafer(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Electricity.Kilograms(); !almostEqual(got, 100, 1e-9) {
		t.Errorf("electricity without overhead = %v kg, want 100", got)
	}
}

func TestEmbodiedValidation(t *testing.T) {
	bad := []EmbodiedInputs{
		{WaferArea: 0},
		{WaferArea: waferArea, MPA: -1},
		{WaferArea: waferArea, EPA: -1},
		{WaferArea: waferArea, CIFab: -1},
		{WaferArea: waferArea, FacilityFactor: -0.1},
	}
	for i, in := range bad {
		if _, err := EmbodiedPerWafer(in); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPerGoodDieEq5(t *testing.T) {
	// Paper, Table II: 837 kgCO2e over 299,127 dies at 90% yield = 3.11 g.
	c, err := PerGoodDie(units.KilogramsCO2e(837), 299127, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Grams(); !almostEqual(got, 3.11, 0.002) {
		t.Errorf("all-Si per good die = %v g, want ≈3.11", got)
	}
	// M3D: 1100 kg over 606,238 dies at 50% yield = 3.63 g.
	c, err = PerGoodDie(units.KilogramsCO2e(1100), 606238, 0.50)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Grams(); !almostEqual(got, 3.63, 0.002) {
		t.Errorf("M3D per good die = %v g, want ≈3.63", got)
	}
}

func TestPerGoodDieValidation(t *testing.T) {
	if _, err := PerGoodDie(1000, 0, 0.9); err == nil {
		t.Error("zero dies should fail")
	}
	if _, err := PerGoodDie(1000, 100, 0); err == nil {
		t.Error("zero yield should fail")
	}
	if _, err := PerGoodDie(1000, 100, 1.5); err == nil {
		t.Error("yield > 1 should fail")
	}
}

func TestGPAScaledEq3(t *testing.T) {
	// GPA scales by the EPA ratio: 1.22× for M3D, 0.79× for all-Si.
	ref := units.GramsPerSquareCentimeter(200)
	got, err := GPAScaled(units.KilowattHours(1088), units.KilowattHours(892), ref)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.GramsPerSquareCentimeter(); !almostEqual(g, 200.0*1088.0/892.0, 1e-9) {
		t.Errorf("GPA M3D = %v, want %v", g, 200.0*1088.0/892.0)
	}
	if _, err := GPAScaled(1, 0, ref); err == nil {
		t.Error("zero reference EPA should fail")
	}
}

func TestOperationalEq8(t *testing.T) {
	// 9.71 mW, 2 h/day over 24 months on a flat US grid.
	p := units.Milliwatts(9.71)
	u := UsagePattern{StartHour: 20, HoursPerDay: 2, Lifetime: 24}
	c, err := Operational(p, u, Flat(GridUS))
	if err != nil {
		t.Fatal(err)
	}
	onHours := 24 * units.HoursPerMonth * (2.0 / 24.0)
	want := 9.71e-3 * onHours * 380 / 1000 // g
	if got := c.Grams(); !almostEqual(got, want, 1e-9) {
		t.Errorf("C_operational = %v g, want %v", got, want)
	}
}

func TestOperationalIntegralMatchesClosedForm(t *testing.T) {
	// Eq. 1 (numerical integral) must agree with Eq. 8 (closed form) for an
	// hourly profile, since the usage window aligns to whole hours. The
	// closed form counts duty-cycled hours pro rata, so use a whole-day
	// lifetime to avoid the partial-final-day discrepancy.
	p := units.Milliwatts(8.46)
	u := UsagePattern{StartHour: 20, HoursPerDay: 2, Lifetime: units.MonthsFromHours(90 * 24)}
	prof := EveningPeak(GridUS.Intensity)
	closed, err := Operational(p, u, prof)
	if err != nil {
		t.Fatal(err)
	}
	integral, err := OperationalIntegral(p, u, prof, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(closed.Grams(), integral.Grams(), 1e-6) {
		t.Errorf("closed form %v vs integral %v", closed, integral)
	}
}

func TestOperationalMidnightWrap(t *testing.T) {
	// A window wrapping midnight (11 pm - 1 am) must integrate correctly.
	p := units.Milliwatts(10)
	u := UsagePattern{StartHour: 23, HoursPerDay: 2, Lifetime: units.MonthsFromHours(30 * 24)}
	prof := EveningPeak(GridUS.Intensity)
	closed, err := Operational(p, u, prof)
	if err != nil {
		t.Fatal(err)
	}
	integral, err := OperationalIntegral(p, u, prof, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(closed.Grams(), integral.Grams(), 1e-6) {
		t.Errorf("wrap window: closed %v vs integral %v", closed, integral)
	}
}

func TestUsagePatternValidate(t *testing.T) {
	bad := []UsagePattern{
		{StartHour: 20, HoursPerDay: 0, Lifetime: 24},
		{StartHour: 20, HoursPerDay: 25, Lifetime: 24},
		{StartHour: -1, HoursPerDay: 2, Lifetime: 24},
		{StartHour: 24, HoursPerDay: 2, Lifetime: 24},
		{StartHour: 20, HoursPerDay: 2, Lifetime: 0},
	}
	for i, u := range bad {
		if err := u.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := PaperUsage.Validate(); err != nil {
		t.Errorf("paper usage should validate: %v", err)
	}
	if got := PaperUsage.DutyCycle(); !almostEqual(got, 2.0/24.0, 1e-12) {
		t.Errorf("duty cycle = %v, want 1/12", got)
	}
}

// TestLongLifetimeRejected pins the on-time bound: Operational converts
// on-hours to a time.Duration, which wraps negative past about 292
// years of on-time (~42,000 months at 2 h/day). Such a lifetime must be
// a validation error, never a negative carbon total.
func TestLongLifetimeRejected(t *testing.T) {
	p := units.Milliwatts(9.71)
	for _, months := range []units.Months{1e6, 1e300, units.Months(math.Inf(1)), units.Months(math.NaN())} {
		u := UsagePattern{StartHour: 20, HoursPerDay: 2, Lifetime: months}
		if err := u.Validate(); err == nil {
			t.Errorf("%g months: Validate accepted an on-time that overflows time.Duration", float64(months))
		}
		if c, err := Operational(p, u, Flat(GridUS)); err == nil {
			t.Errorf("%g months: Operational = %v, want an error", float64(months), c)
		}
	}
	// Just inside the bound the closed form is still exact and positive.
	u := UsagePattern{StartHour: 20, HoursPerDay: 2, Lifetime: 42000}
	c, err := Operational(p, u, Flat(GridUS))
	if err != nil {
		t.Fatalf("42000 months: %v", err)
	}
	want := 9.71e-3 * u.OnHours() * 380 / 1000
	if got := c.Grams(); got <= 0 || !almostEqual(got, want, 1e-9) {
		t.Errorf("42000 months: C_operational = %v g, want %v", got, want)
	}
	// Standby converts the (longer) off-time the same way.
	u.Lifetime = 10000
	if c, err := OperationalWithStandby(p, units.Milliwatts(1), u, Flat(GridUS)); err == nil {
		t.Errorf("10000 months of standby: %v, want an error", c)
	}
}

func TestOperationalPowerEq6(t *testing.T) {
	// Table II at 500 MHz: (1.42 + 18.0) pJ / 2 ns = 9.71 mW with no static.
	p := OperationalPower(0, units.Picojoules(1.42), units.Picojoules(18.0), units.Megahertz(500))
	if got := p.Milliwatts(); !almostEqual(got, 9.71, 1e-9) {
		t.Errorf("P_operational = %v mW, want 9.71", got)
	}
	// M3D: (1.42 + 15.5) pJ / 2 ns = 8.46 mW.
	p = OperationalPower(0, units.Picojoules(1.42), units.Picojoules(15.5), units.Megahertz(500))
	if got := p.Milliwatts(); !almostEqual(got, 8.46, 1e-9) {
		t.Errorf("P_operational M3D = %v mW, want 8.46", got)
	}
	// Static power adds through; zero clock passes static only.
	p = OperationalPower(units.Microwatts(50), units.Picojoules(1), units.Picojoules(1), 0)
	if got := p.Microwatts(); !almostEqual(got, 50, 1e-12) {
		t.Errorf("static-only power = %v µW, want 50", got)
	}
}

func TestHourlyProfileMeanAndWindow(t *testing.T) {
	prof := EveningPeak(units.GramsPerKilowattHour(380))
	if got := prof.Mean().GramsPerKilowattHour(); !almostEqual(got, 380, 1e-9) {
		t.Errorf("normalized mean = %v, want 380", got)
	}
	// The 8-10 pm window must be above the daily mean for an evening-peak
	// shape, below it for a solar-day shape at midday.
	evening := MeanWindow(prof, 20, 22).GramsPerKilowattHour()
	if evening <= 380 {
		t.Errorf("evening window mean = %v, want > 380", evening)
	}
	solar := SolarDay(units.GramsPerKilowattHour(380))
	midday := MeanWindow(solar, 11, 13).GramsPerKilowattHour()
	if midday >= 380 {
		t.Errorf("solar midday mean = %v, want < 380", midday)
	}
}

func TestMeanWindowWrapsAndMatchesNumeric(t *testing.T) {
	prof := EveningPeak(units.GramsPerKilowattHour(500))
	// Whole-hour wrap: 11 pm to 1 am = average of hours 23 and 0.
	got := MeanWindow(prof, 23, 25).GramsPerKilowattHour()
	want := (prof.Hours[23].GramsPerKilowattHour() + prof.Hours[0].GramsPerKilowattHour()) / 2
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("wrap window mean = %v, want %v", got, want)
	}
	// Fractional windows fall back to the numeric path and stay close.
	frac := MeanWindow(prof, 20.5, 21.5).GramsPerKilowattHour()
	lo := math.Min(prof.Hours[20].GramsPerKilowattHour(), prof.Hours[21].GramsPerKilowattHour())
	hi := math.Max(prof.Hours[20].GramsPerKilowattHour(), prof.Hours[21].GramsPerKilowattHour())
	if frac < lo-1e-6 || frac > hi+1e-6 {
		t.Errorf("fractional window mean %v outside [%v, %v]", frac, lo, hi)
	}
}

func TestMeanWindowToleratesHourDrift(t *testing.T) {
	// Regression for the exact == math.Trunc whole-hour gate flagged by
	// ppatcvet's floatcmp: window bounds computed arithmetically land a
	// few ulps off the integer and used to fall onto the 2400-step
	// numeric path. Drifted bounds must now hit the exact hourly
	// average, byte-identical to the clean-integer call.
	prof := EveningPeak(units.GramsPerKilowattHour(500))
	exact := MeanWindow(prof, 18, 22)
	const drift = 3e-12
	for _, bounds := range [][2]float64{
		{18 + drift, 22 - drift},
		{18 - drift, 22 + drift},
		{6 * 3.0, 22}, // product that may not be exactly 18
	} {
		got := MeanWindow(prof, bounds[0], bounds[1])
		if got != exact {
			t.Errorf("MeanWindow(%v, %v) = %v, want exact-path %v",
				bounds[0], bounds[1], got, exact)
		}
	}
	// Genuinely fractional bounds still take the numeric path.
	if frac := MeanWindow(prof, 18.5, 22); frac == exact {
		t.Errorf("fractional window unexpectedly matched the exact path")
	}
}

func TestPeakHoursTieBreakDeterministic(t *testing.T) {
	// Pins the suppressed exact comparison in PeakHours' sort: on a
	// flat profile every window ties, and the tie-break must pick the
	// earliest start rather than whatever order sort.Slice visits.
	flat := &HourlyProfile{Name: "flat"}
	for i := range flat.Hours {
		flat.Hours[i] = units.GramsPerKilowattHour(400)
	}
	for n := 1; n <= 4; n++ {
		start, end := PeakHours(flat, n)
		if start != 0 || end != n%24 {
			t.Errorf("PeakHours(flat, %d) = (%d, %d), want (0, %d)", n, start, end, n%24)
		}
	}
}

func TestPeakHours(t *testing.T) {
	prof := EveningPeak(units.GramsPerKilowattHour(380))
	start, end := PeakHours(prof, 2)
	// The evening-peak shape is highest at 18-21; a 2-hour window should
	// start at 18 or 19.
	if start != 18 && start != 19 {
		t.Errorf("peak window starts at %d, want 18 or 19", start)
	}
	if end != (start+2)%24 {
		t.Errorf("end = %d, want start+2 mod 24", end)
	}
}

func TestTotalType(t *testing.T) {
	tot := Total{Embodied: units.GramsCO2e(3.11), Operational: units.GramsCO2e(2.0)}
	if got := tot.TC().Grams(); !almostEqual(got, 5.11, 1e-12) {
		t.Errorf("tC = %v, want 5.11", got)
	}
	if !tot.EmbodiedDominates() {
		t.Error("embodied should dominate at 3.11 vs 2.0")
	}
	tot.Operational = units.GramsCO2e(4)
	if tot.EmbodiedDominates() {
		t.Error("operational should dominate at 3.11 vs 4.0")
	}
}

func TestExtensionHooks(t *testing.T) {
	w := LitersPerSquareCentimeter(8) // ~8 L/cm² is a typical fab figure
	if got := w.Over(waferArea); !almostEqual(got, 8*math.Pi*225, 1e-9) {
		t.Errorf("water = %v L", got)
	}
	c := DollarsPerSquareCentimeter(15)
	if got := c.Over(waferArea); !almostEqual(got, 15*math.Pi*225, 1e-9) {
		t.Errorf("cost = %v USD", got)
	}
}

// Property: operational carbon is linear in power and in lifetime.
func TestOperationalLinearity(t *testing.T) {
	u := UsagePattern{StartHour: 20, HoursPerDay: 2, Lifetime: 24}
	prof := Flat(GridUS)
	f := func(mw uint16) bool {
		p := units.Milliwatts(float64(mw) / 100)
		c1, err1 := Operational(p, u, prof)
		c2, err2 := Operational(2*p, u, prof)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(2*c1.Grams(), c2.Grams(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(months uint8) bool {
		if months == 0 {
			return true
		}
		ua := u
		ua.Lifetime = units.Months(months)
		ub := u
		ub.Lifetime = units.Months(2 * float64(months))
		c1, err1 := Operational(units.Milliwatts(5), ua, prof)
		c2, err2 := Operational(units.Milliwatts(5), ub, prof)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(2*c1.Grams(), c2.Grams(), 1e-9)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: per-good-die carbon decreases monotonically with yield.
func TestPerGoodDieMonotonicInYield(t *testing.T) {
	f := func(y1, y2 float64) bool {
		y1 = 0.05 + 0.9*math.Abs(math.Mod(y1, 1))
		y2 = 0.05 + 0.9*math.Abs(math.Mod(y2, 1))
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		c1, err1 := PerGoodDie(units.KilogramsCO2e(1000), 1000, y1)
		c2, err2 := PerGoodDie(units.KilogramsCO2e(1000), 1000, y2)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 >= c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOperationalWithStandby(t *testing.T) {
	u := UsagePattern{StartHour: 20, HoursPerDay: 2, Lifetime: 24}
	prof := Flat(GridUS)
	active := units.Milliwatts(9.714)
	// Zero standby reduces to Eq. 8.
	base, err := Operational(active, u, prof)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OperationalWithStandby(active, 0, u, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Grams(), base.Grams(), 1e-12) {
		t.Errorf("zero standby: %v != %v", got, base)
	}
	// With a flat profile, standby carbon is P_standby × off-hours × CI.
	standby := units.Microwatts(800)
	got, err = OperationalWithStandby(active, standby, u, prof)
	if err != nil {
		t.Fatal(err)
	}
	offHours := 24 * units.HoursPerMonth * 22.0 / 24.0
	wantExtra := 0.8e-3 * offHours * 380 / 1000
	if !almostEqual(got.Grams()-base.Grams(), wantExtra, 1e-9) {
		t.Errorf("standby carbon = %v g, want %v", got.Grams()-base.Grams(), wantExtra)
	}
	// An 800 µW standby over 22 h/day dwarfs 2 h/day at ~10 mW? No — but
	// it must be a significant fraction: standby/active carbon ratio =
	// (0.8e-3×22)/(9.714e-3×2) ≈ 0.9.
	ratio := (got.Grams() - base.Grams()) / base.Grams()
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("standby/active carbon ratio = %.2f, want ≈0.9", ratio)
	}
	// Validation.
	if _, err := OperationalWithStandby(-1, 0, u, prof); err == nil {
		t.Error("negative active power should fail")
	}
	if _, err := OperationalWithStandby(1, -1, u, prof); err == nil {
		t.Error("negative standby power should fail")
	}
}

func TestOperationalStandbyDiurnalWindows(t *testing.T) {
	// With an evening-peak profile, the standby window (10 pm - 8 pm) has
	// lower mean CI than the 8-10 pm active window, so standby grams per
	// watt-hour are cheaper than active ones.
	prof := EveningPeak(GridUS.Intensity)
	activeCI := MeanWindow(prof, 20, 22).GramsPerKilowattHour()
	standbyCI := MeanWindow(prof, 22, 44).GramsPerKilowattHour()
	if standbyCI >= activeCI {
		t.Errorf("standby window CI %v should be below evening-peak active %v", standbyCI, activeCI)
	}
}

func TestStandbyBreakEven(t *testing.T) {
	u := UsagePattern{StartHour: 20, HoursPerDay: 2, Lifetime: 24}
	prof := Flat(GridUS)
	active := units.Milliwatts(9.714)
	be, err := StandbyBreakEven(active, u, prof)
	if err != nil {
		t.Fatal(err)
	}
	// Flat profile: break-even standby = active × (2/22).
	want := 9.714e-3 * 2 / 22
	if !almostEqual(be.Watts(), want, 1e-9) {
		t.Errorf("break-even = %v W, want %v", be.Watts(), want)
	}
	// Verify: at the break-even standby, total = 2× base.
	base, _ := Operational(active, u, prof)
	tot, err := OperationalWithStandby(active, be, u, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tot.Grams(), 2*base.Grams(), 1e-9) {
		t.Errorf("at break-even total %v != 2×%v", tot.Grams(), base.Grams())
	}
	// Validation.
	if _, err := StandbyBreakEven(0, u, prof); err == nil {
		t.Error("zero active power should fail")
	}
	full := UsagePattern{StartHour: 0, HoursPerDay: 24, Lifetime: 24}
	if _, err := StandbyBreakEven(active, full, prof); err == nil {
		t.Error("always-on pattern should fail")
	}
}

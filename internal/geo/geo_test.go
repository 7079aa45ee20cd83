package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Reference distances (city-to-city, great circle), tolerance 3%.
	cases := []struct {
		name string
		a, b Point
		want float64
	}{
		{"London-NewYork", Point{51.5, -0.12}, Point{40.71, -74.0}, 5570},
		{"Frankfurt-London", Point{50.11, 8.68}, Point{51.5, -0.12}, 640},
		{"Tokyo-Mumbai", Point{35.68, 139.69}, Point{19.08, 72.88}, 6740},
		{"Johannesburg-Cairo", Point{-26.2, 28.05}, Point{30.04, 31.24}, 6270},
		{"SaoPaulo-Miami", Point{-23.55, -46.63}, Point{25.76, -80.19}, 6570},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.want)/c.want > 0.03 {
			t.Errorf("%s: got %.0f km, want ~%.0f km", c.name, got, c.want)
		}
	}
}

func TestDistanceZero(t *testing.T) {
	p := Point{48.1, 11.6}
	if d := DistanceKm(p, p); d != 0 {
		t.Errorf("distance to self = %v, want 0", d)
	}
}

// TestDistanceKmBits pins DistanceKm to the haversine as first written,
// with each half-angle sine called twice: computing them once must not
// move a bit of any distance the simulator prices.
func TestDistanceKmBits(t *testing.T) {
	ref := func(a, b Point) float64 {
		la1, lo1 := radians(a.Lat), radians(a.Lon)
		la2, lo2 := radians(b.Lat), radians(b.Lon)
		dLat := la2 - la1
		dLon := lo2 - lo1
		h := math.Sin(dLat/2)*math.Sin(dLat/2) +
			math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
		if h > 1 {
			h = 1
		}
		return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
	}
	rng := rand.New(rand.NewSource(1))
	random := func() Point { return Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180} }
	var pairs [][2]Point
	for i := 0; i < 100_000; i++ {
		a := random()
		pairs = append(pairs, [2]Point{a, random()})
	}
	for i := 0; i < 1_000; i++ {
		a := random()
		antipode := Point{Lat: -a.Lat, Lon: normalizeLon(a.Lon + 180)}
		near := Point{Lat: a.Lat + (rng.Float64()-0.5)*1e-9, Lon: a.Lon + (rng.Float64()-0.5)*1e-9}
		pairs = append(pairs, [2]Point{a, a}, [2]Point{a, antipode}, [2]Point{a, near})
	}
	pairs = append(pairs, [2]Point{{90, 0}, {-90, 0}}, [2]Point{{0, -180}, {0, 180}}, [2]Point{{0, 0}, {0, 180}})
	for _, pr := range pairs {
		got, want := DistanceKm(pr[0], pr[1]), ref(pr[0], pr[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DistanceKm(%v, %v) = %v (%#x), reference %v (%#x)",
				pr[0], pr[1], got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(la1, lo1, la2, lo2 float64) bool {
		a := Point{Lat: clamp(la1, -90, 90), Lon: clamp(lo1, -180, 180)}
		b := Point{Lat: clamp(la2, -90, 90), Lon: clamp(lo2, -180, 180)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceBounds(t *testing.T) {
	// No two points on Earth are farther apart than half the circumference.
	maxD := math.Pi * EarthRadiusKm
	f := func(la1, lo1, la2, lo2 float64) bool {
		a := Point{Lat: clamp(la1, -90, 90), Lon: clamp(lo1, -180, 180)}
		b := Point{Lat: clamp(la2, -90, 90), Lon: clamp(lo2, -180, 180)}
		d := DistanceKm(a, b)
		return d >= 0 && d <= maxD+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(la1, lo1, la2, lo2, la3, lo3 float64) bool {
		a := Point{Lat: clamp(la1, -90, 90), Lon: clamp(lo1, -180, 180)}
		b := Point{Lat: clamp(la2, -90, 90), Lon: clamp(lo2, -180, 180)}
		c := Point{Lat: clamp(la3, -90, 90), Lon: clamp(lo3, -180, 180)}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMidpointEquidistant(t *testing.T) {
	a := Point{50.9, 9.9}   // Germany
	b := Point{35.9, 137.7} // Japan
	m := Midpoint(a, b)
	da, db := DistanceKm(a, m), DistanceKm(b, m)
	if math.Abs(da-db) > 1.0 {
		t.Errorf("midpoint not equidistant: %f vs %f", da, db)
	}
	if !m.Valid() {
		t.Errorf("midpoint invalid: %v", m)
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	a := Point{-27.7, 27.1}
	b := Point{30.2, 31.1}
	if got := Interpolate(a, b, 0); got != a {
		t.Errorf("f=0: got %v, want %v", got, a)
	}
	if got := Interpolate(a, b, 1); got != b {
		t.Errorf("f=1: got %v, want %v", got, b)
	}
	if got := Interpolate(a, a, 0.5); got != a {
		t.Errorf("degenerate arc: got %v, want %v", got, a)
	}
}

func TestInterpolateAdditive(t *testing.T) {
	a := Point{40.71, -74.0}
	b := Point{51.5, -0.12}
	total := DistanceKm(a, b)
	m := Interpolate(a, b, 0.3)
	d1 := DistanceKm(a, m)
	if math.Abs(d1-0.3*total) > 1.0 {
		t.Errorf("interpolate(0.3): distance from a = %f, want %f", d1, 0.3*total)
	}
}

func TestInterpolateMonotonic(t *testing.T) {
	a := Point{1.35, 103.82}
	b := Point{35.9, 137.7}
	prev := -1.0
	for f := 0.0; f <= 1.0; f += 0.1 {
		d := DistanceKm(a, Interpolate(a, b, f))
		if d < prev-1e-6 {
			t.Fatalf("interpolation not monotonic at f=%.1f: %f < %f", f, d, prev)
		}
		prev = d
	}
}

func TestContinentRoundTrip(t *testing.T) {
	for _, c := range Continents() {
		got, err := ParseContinent(c.String())
		if err != nil || got != c {
			t.Errorf("round trip %v: got %v, err %v", c, got, err)
		}
	}
	if _, err := ParseContinent("XX"); err == nil {
		t.Error("ParseContinent(XX) should fail")
	}
	if ContinentUnknown.String() != "??" {
		t.Errorf("unknown continent string = %q", ContinentUnknown.String())
	}
}

func TestCountryDatabase(t *testing.T) {
	if len(AllCountries()) < 120 {
		t.Fatalf("country database too small: %d", len(AllCountries()))
	}
	seen := map[string]bool{}
	for _, c := range AllCountries() {
		if len(c.Code) != 2 {
			t.Errorf("bad code %q", c.Code)
		}
		if seen[c.Code] {
			t.Errorf("duplicate country code %q", c.Code)
		}
		seen[c.Code] = true
		if !c.Centroid.Valid() {
			t.Errorf("%s: invalid centroid %v", c.Code, c.Centroid)
		}
		if c.Continent == ContinentUnknown {
			t.Errorf("%s: unknown continent", c.Code)
		}
		if c.UserWeight <= 0 {
			t.Errorf("%s: non-positive user weight", c.Code)
		}
	}
	// Every country named in the paper's figures must exist.
	for _, code := range []string{
		"DZ", "EG", "ET", "KE", "MA", "SN", "TN", "ZA", // Fig 6a
		"AR", "BO", "BR", "CL", "CO", "EC", "PE", "VE", // Fig 6b
		"ZA", "MA", "JP", "IR", "GB", "UA", "US", "MX", // Fig 9
		"DE", "IN", "BH", "CN", "SG",
	} {
		if _, ok := CountryByCode(code); !ok {
			t.Errorf("missing paper country %s", code)
		}
	}
}

func TestCountriesInPartition(t *testing.T) {
	total := 0
	for _, cont := range Continents() {
		cs := CountriesIn(cont)
		if len(cs) == 0 {
			t.Errorf("no countries in %v", cont)
		}
		for _, c := range cs {
			if c.Continent != cont {
				t.Errorf("%s assigned to wrong continent", c.Code)
			}
		}
		total += len(cs)
	}
	if total != len(AllCountries()) {
		t.Errorf("continent partition covers %d of %d countries", total, len(AllCountries()))
	}
}

func TestCountryByCodeMiss(t *testing.T) {
	if _, ok := CountryByCode("ZZ"); ok {
		t.Error("CountryByCode(ZZ) should miss")
	}
}

func TestPointValid(t *testing.T) {
	for _, tc := range []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{-91, 0}, false},
	} {
		if got := tc.p.Valid(); got != tc.want {
			t.Errorf("Valid(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), hi-lo) + lo
}

func TestContinentAreas(t *testing.T) {
	var total float64
	for _, c := range Continents() {
		a := c.AreaMKm2()
		if a <= 0 {
			t.Errorf("%v: non-positive area", c)
		}
		total += a
	}
	// Populated continents sum to ≈136M km² (Antarctica excluded).
	if total < 120 || total > 150 {
		t.Errorf("total landmass = %.1f M km²", total)
	}
	if AS.AreaMKm2() <= EU.AreaMKm2() {
		t.Error("Asia must dwarf Europe")
	}
	if ContinentUnknown.AreaMKm2() != 0 {
		t.Error("unknown continent should have zero area")
	}
}

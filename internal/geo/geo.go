// Package geo provides geographic primitives for the cloud-connectivity
// study: WGS84 points, great-circle distance, continents, and a country
// database with centroids and Internet-user population weights.
//
// Geographic distance is the single most influential factor on cloud
// access latency in the paper (§4.1), so every latency computation in the
// simulator bottoms out in this package.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle math.
const EarthRadiusKm = 6371.0

// Point is a WGS84 coordinate. The zero value is the Gulf of Guinea
// (0, 0), which is a valid point.
type Point struct {
	Lat float64 // degrees, [-90, 90]
	Lon float64 // degrees, [-180, 180]
}

// Valid reports whether p lies within the WGS84 coordinate bounds.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// String formats the point as "lat,lon" with four decimals.
func (p Point) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }

// DistanceKm returns the great-circle distance between a and b in
// kilometres using the haversine formula.
func DistanceKm(a, b Point) float64 {
	la1, lo1 := radians(a.Lat), radians(a.Lon)
	la2, lo2 := radians(b.Lat), radians(b.Lon)
	sLat := math.Sin((la2 - la1) / 2)
	sLon := math.Sin((lo2 - lo1) / 2)
	h := sLat*sLat + math.Cos(la1)*math.Cos(la2)*sLon*sLon
	// Clamp for floating-point safety before the asin.
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Midpoint returns the great-circle midpoint between a and b.
func Midpoint(a, b Point) Point {
	la1, lo1 := radians(a.Lat), radians(a.Lon)
	la2, lo2 := radians(b.Lat), radians(b.Lon)
	dLon := lo2 - lo1
	bx := math.Cos(la2) * math.Cos(dLon)
	by := math.Cos(la2) * math.Sin(dLon)
	lat := math.Atan2(math.Sin(la1)+math.Sin(la2),
		math.Sqrt((math.Cos(la1)+bx)*(math.Cos(la1)+bx)+by*by))
	lon := lo1 + math.Atan2(by, math.Cos(la1)+bx)
	return Point{Lat: lat * 180 / math.Pi, Lon: normalizeLon(lon * 180 / math.Pi)}
}

// Interpolate returns the point a fraction f (0..1) of the way along the
// great circle from a to b. f=0 yields a, f=1 yields b.
func Interpolate(a, b Point, f float64) Point {
	if f <= 0 {
		return a
	}
	if f >= 1 {
		return b
	}
	d := DistanceKm(a, b) / EarthRadiusKm // angular distance
	if d == 0 {
		return a
	}
	la1, lo1 := radians(a.Lat), radians(a.Lon)
	la2, lo2 := radians(b.Lat), radians(b.Lon)
	sinD := math.Sin(d)
	fa := math.Sin((1-f)*d) / sinD
	fb := math.Sin(f*d) / sinD
	x := fa*math.Cos(la1)*math.Cos(lo1) + fb*math.Cos(la2)*math.Cos(lo2)
	y := fa*math.Cos(la1)*math.Sin(lo1) + fb*math.Cos(la2)*math.Sin(lo2)
	z := fa*math.Sin(la1) + fb*math.Sin(la2)
	lat := math.Atan2(z, math.Sqrt(x*x+y*y))
	lon := math.Atan2(y, x)
	return Point{Lat: lat * 180 / math.Pi, Lon: normalizeLon(lon * 180 / math.Pi)}
}

func normalizeLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

// Continent identifies one of the six populated continents, using the
// two-letter codes the paper uses (EU, NA, SA, AS, AF, OC).
type Continent uint8

// Continents in the paper's ordering.
const (
	ContinentUnknown Continent = iota
	EU
	NA
	SA
	AS
	AF
	OC
)

// Continents lists all six populated continents in the paper's order.
func Continents() []Continent { return []Continent{EU, NA, SA, AS, AF, OC} }

// AreaMKm2 returns the continent's landmass in millions of km² — the
// denominator of the paper's "geoDensity" (probes per geographical
// distance, §3.2) and of §4.1's datacenters-to-landmass ratio.
func (c Continent) AreaMKm2() float64 {
	switch c {
	case EU:
		return 10.2
	case NA:
		return 24.7
	case SA:
		return 17.8
	case AS:
		return 44.6
	case AF:
		return 30.4
	case OC:
		return 8.5
	default:
		return 0
	}
}

// String returns the two-letter continent code.
func (c Continent) String() string {
	switch c {
	case EU:
		return "EU"
	case NA:
		return "NA"
	case SA:
		return "SA"
	case AS:
		return "AS"
	case AF:
		return "AF"
	case OC:
		return "OC"
	default:
		return "??"
	}
}

// ParseContinent converts a two-letter code to a Continent.
func ParseContinent(s string) (Continent, error) {
	switch s {
	case "EU":
		return EU, nil
	case "NA":
		return NA, nil
	case "SA":
		return SA, nil
	case "AS":
		return AS, nil
	case "AF":
		return AF, nil
	case "OC":
		return OC, nil
	}
	return ContinentUnknown, fmt.Errorf("geo: unknown continent %q", s)
}

// Country describes one country in the study's coverage: ISO 3166-1
// alpha-2 code, display name, continent, population centroid, and a
// relative Internet-user weight (APNIC-style population share used to
// distribute synthetic vantage points).
type Country struct {
	Code       string
	Name       string
	Continent  Continent
	Centroid   Point
	UserWeight float64 // relative Internet-user population, arbitrary units
}

// CountryByCode returns the country with the given ISO code.
func CountryByCode(code string) (Country, bool) {
	c, ok := countryIndex[code]
	return c, ok
}

// AllCountries returns the full country database in a stable order
// (the order of the embedded table). Callers must not mutate the result.
func AllCountries() []Country { return countries }

// CountriesIn returns the countries on the given continent, in database
// order.
func CountriesIn(cont Continent) []Country {
	var out []Country
	for _, c := range countries {
		if c.Continent == cont {
			out = append(out, c)
		}
	}
	return out
}

var countryIndex = func() map[string]Country {
	m := make(map[string]Country, len(countries))
	for _, c := range countries {
		m[c.Code] = c
	}
	return m
}()

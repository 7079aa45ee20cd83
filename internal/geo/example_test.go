package geo_test

import (
	"fmt"

	"repro/internal/geo"
)

func ExampleDistanceKm() {
	frankfurt := geo.Point{Lat: 50.11, Lon: 8.68}
	london := geo.Point{Lat: 51.51, Lon: -0.13}
	fmt.Printf("%.0f km\n", geo.DistanceKm(frankfurt, london))
	// Output: 638 km
}

func ExampleCountryByCode() {
	de, _ := geo.CountryByCode("DE")
	fmt.Println(de.Code, de.Continent)
	// Output: DE EU
}

// Package geo provides the geographic substrate for the measurement study:
// coordinates, great-circle distances, a country database with centroids,
// continents, and the continent-adjacency rules used by the paper's
// measurement methodology (probes measure to datacenters within the same
// continent, plus adjacent continents for under-served regions).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm = 6371.0

// Point is a geographic coordinate in decimal degrees.
type Point struct {
	Lat float64 // latitude, [-90, 90]
	Lon float64 // longitude, [-180, 180]
}

// Valid reports whether the point lies within geographic bounds.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// String formats the point as "lat,lon" with 4 decimal places.
func (p Point) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon)
}

// DistanceKm returns the great-circle distance between a and b in
// kilometers, computed with the haversine formula.
func DistanceKm(a, b Point) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

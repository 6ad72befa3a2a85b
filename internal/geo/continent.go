package geo

import "fmt"

// Continent identifies one of the six populated continents used in the
// paper's per-continent groupings (Figures 5 and 6).
type Continent uint8

// Continents in the order the paper's figures list them.
const (
	ContinentUnknown Continent = iota
	Africa
	Asia
	Europe
	NorthAmerica
	Oceania
	SouthAmerica
)

// Continents lists all known continents in display order.
func Continents() []Continent {
	return []Continent{Africa, Asia, Europe, NorthAmerica, Oceania, SouthAmerica}
}

// continentNames holds each continent's full name and two-letter code.
var continentNames = [...][2]string{
	ContinentUnknown: {"Unknown", "??"},
	Africa:           {"Africa", "AF"},
	Asia:             {"Asia", "AS"},
	Europe:           {"Europe", "EU"},
	NorthAmerica:     {"North America", "NA"},
	Oceania:          {"Oceania", "OC"},
	SouthAmerica:     {"South America", "SA"},
}

// names is c's row of continentNames, the unknown one's when c is out of range.
func (c Continent) names() [2]string {
	if int(c) >= len(continentNames) {
		c = ContinentUnknown
	}
	return continentNames[c]
}

// String returns the full continent name as used in figure legends.
func (c Continent) String() string { return c.names()[0] }

// Code returns the two-letter continent code (AF, AS, EU, NA, OC, SA).
func (c Continent) Code() string { return c.names()[1] }

// ParseContinent converts a two-letter code or full name into a Continent.
func ParseContinent(s string) (Continent, error) {
	for _, c := range Continents() {
		if s == c.Code() || s == c.String() {
			return c, nil
		}
	}
	if s == "Latin America" {
		return SouthAmerica, nil
	}
	return ContinentUnknown, fmt.Errorf("geo: unknown continent %q", s)
}

// MeasurementTargets returns the continents whose datacenters probes on
// continent c measure to. Per the paper's methodology (§4.1), probes measure
// within their own continent; probes in continents with low datacenter
// density (Africa and South America) additionally measure to Europe and
// North America respectively.
func (c Continent) MeasurementTargets() []Continent {
	switch c {
	case Africa:
		return []Continent{Africa, Europe}
	case SouthAmerica:
		return []Continent{SouthAmerica, NorthAmerica}
	case ContinentUnknown:
		return nil
	default:
		return []Continent{c}
	}
}

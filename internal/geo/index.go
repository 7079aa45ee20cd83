package geo

import "math"

// Index answers nearest-point queries over a fixed list of points. It
// returns exactly what a linear scan of DistanceKm with a strict < returns
// — the earliest of the closest points — at three multiply-adds per point
// instead of the haversine's trigonometry. An Index is read-only once
// built and safe for concurrent use.
//
// The squared chord |q − v|² between two unit vectors is 4·h, h the
// haversine term, and DistanceKm = 2R·asin(√h) is monotone in h, so the
// chord orders points as the distance does. Rounding can still order two
// near-equal points differently in the two formulas. Nearest therefore
// finds the least squared chord and keeps every point within a window
// above it. A lone point in the window is the answer; otherwise
// DistanceKm decides among only those points, in list order (DESIGN §8).
type Index struct {
	pts  []Point
	unit [][3]float64
}

// chordRel and chordAbs size the window above the least squared chord
// m: Nearest keeps every point whose squared chord is at most
// m·(1+chordRel) + chordAbs. Each formula's rounding, mostly in the
// degree-to-radian conversion and the trigonometric calls, moves a value
// by well under 1e-14·c + 1e-15·c² in squared-chord units, c the chord.
// A point the haversine ranks at or before the chord's nearest therefore
// lies within 2e-14·c + 2e-15·c² of m, and that is inside the window for
// every c: chordRel covers the c² term, and 2e-14·c ≤ chordRel·c² +
// chordAbs because (2e-14)² < 4·chordRel·chordAbs.
const (
	chordRel = 1e-9
	chordAbs = 1e-16
)

// NewIndex indexes pts. The Index keeps its own copy.
func NewIndex(pts []Point) Index {
	x := Index{pts: append([]Point(nil), pts...), unit: make([][3]float64, len(pts))}
	for i, p := range pts {
		x.unit[i] = unitVector(p)
	}
	return x
}

// Nearest returns the position in the indexed list of the point closest
// to p by DistanceKm, the earliest of equals; -1 when the list is empty.
func (x Index) Nearest(p Point) int {
	q := unitVector(p)
	least, next, at := math.Inf(1), math.Inf(1), -1
	for i, v := range x.unit {
		c := chordSq(q, v)
		if c < least {
			least, next, at = c, least, i
		} else if c < next {
			next = c
		}
	}
	limit := least*(1+chordRel) + chordAbs
	if next > limit {
		return at // the window holds one point, so it is DistanceKm's nearest
	}
	best, bestD := -1, 0.0
	for i, v := range x.unit {
		if chordSq(q, v) > limit {
			continue
		}
		if d := DistanceKm(p, x.pts[i]); best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func unitVector(p Point) [3]float64 {
	la, lo := radians(p.Lat), radians(p.Lon)
	cl := math.Cos(la)
	return [3]float64{cl * math.Cos(lo), cl * math.Sin(lo), math.Sin(la)}
}

func chordSq(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return dx*dx + dy*dy + dz*dz
}

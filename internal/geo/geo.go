// Package geo provides the planar/geographic primitives used throughout
// PS2Stream: points, rectangles, and degree/kilometre conversions.
//
// Coordinates follow the geographic convention of the paper: X is longitude
// and Y is latitude, both in decimal degrees. All geometry is computed on
// the equirectangular plane, which is accurate enough for the region scales
// (1–100 km query rectangles) used in the evaluation.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for degree/km conversions.
const EarthRadiusKm = 6371.0

// KmPerDegreeLat is the north-south extent of one degree of latitude.
const KmPerDegreeLat = math.Pi * EarthRadiusKm / 180.0

// Point is a geographic coordinate (X = longitude, Y = latitude, degrees).
type Point struct {
	X float64
	Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.5f,%.5f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner; a Rect is valid when Min.X <= Max.X and
// Min.Y <= Max.Y. Rectangles are closed on all sides: boundary points are
// contained.
type Rect struct {
	Min Point
	Max Point
}

// NewRect returns the rectangle spanning the two corner coordinates,
// normalising the corner order so the result is valid.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{Min: Point{x1, y1}, Max: Point{x2, y2}}
}

// RectAround returns a rectangle centred at c with the given side lengths
// expressed in kilometres, converted to degrees at c's latitude. This is how
// the paper synthesises STS query regions ("the side lengths of the
// rectangle are randomly assigned between 1km and 50km").
func RectAround(c Point, widthKm, heightKm float64) Rect {
	halfH := heightKm / 2 / KmPerDegreeLat
	kmPerDegLon := KmPerDegreeLat * math.Cos(c.Y*math.Pi/180)
	if kmPerDegLon < 1e-9 {
		kmPerDegLon = 1e-9
	}
	halfW := widthKm / 2 / kmPerDegLon
	return Rect{
		Min: Point{c.X - halfW, c.Y - halfH},
		Max: Point{c.X + halfW, c.Y + halfH},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Min, r.Max)
}

// Valid reports whether the rectangle's corners are ordered.
func (r Rect) Valid() bool {
	return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Width returns the X extent of the rectangle in degrees.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the Y extent of the rectangle in degrees.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area in square degrees.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least a boundary point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Intersect returns the overlapping region of r and s. The boolean result
// is false when the rectangles are disjoint, in which case the returned
// rectangle is the zero value.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}, true
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Clip returns r clipped to the bounds of s; if they do not overlap the
// zero rectangle at s.Min is returned.
func (r Rect) Clip(s Rect) Rect {
	out, ok := r.Intersect(s)
	if !ok {
		return Rect{Min: s.Min, Max: s.Min}
	}
	return out
}

// SplitX splits r at the vertical line x, returning the left and right
// halves. x is clamped into the rectangle.
func (r Rect) SplitX(x float64) (left, right Rect) {
	x = clamp(x, r.Min.X, r.Max.X)
	left = Rect{Min: r.Min, Max: Point{x, r.Max.Y}}
	right = Rect{Min: Point{x, r.Min.Y}, Max: r.Max}
	return left, right
}

// SplitY splits r at the horizontal line y, returning the bottom and top
// halves. y is clamped into the rectangle.
func (r Rect) SplitY(y float64) (bottom, top Rect) {
	y = clamp(y, r.Min.Y, r.Max.Y)
	bottom = Rect{Min: r.Min, Max: Point{r.Max.X, y}}
	top = Rect{Min: Point{r.Min.X, y}, Max: r.Max}
	return bottom, top
}

// SplitEvenly cuts r into p pieces of equal area: it cuts the longer side
// where p/2 of the pieces end and recurses on both sides, so the pieces
// stay close to square. It returns r alone when p <= 1.
func (r Rect) SplitEvenly(p int) []Rect {
	if p <= 1 {
		return []Rect{r}
	}
	k := p / 2
	share := float64(k) / float64(p)
	var lo, hi Rect
	if r.Width() >= r.Height() {
		lo, hi = r.SplitX(r.Min.X + share*r.Width())
	} else {
		lo, hi = r.SplitY(r.Min.Y + share*r.Height())
	}
	return append(lo.SplitEvenly(k), hi.SplitEvenly(p-k)...)
}

// Expand grows the rectangle by d degrees on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

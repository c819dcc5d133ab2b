package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRectNormalises(t *testing.T) {
	tests := []struct {
		name           string
		x1, y1, x2, y2 float64
	}{
		{"ordered", 0, 0, 1, 1},
		{"swapped x", 1, 0, 0, 1},
		{"swapped y", 0, 1, 1, 0},
		{"swapped both", 1, 1, 0, 0},
		{"degenerate", 0.5, 0.5, 0.5, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewRect(tt.x1, tt.y1, tt.x2, tt.y2)
			if !r.Valid() {
				t.Fatalf("NewRect(%v,%v,%v,%v) = %v, not valid", tt.x1, tt.y1, tt.x2, tt.y2, r)
			}
		})
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 5)
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"center", Point{5, 2.5}, true},
		{"min corner", Point{0, 0}, true},
		{"max corner", Point{10, 5}, true},
		{"left edge", Point{0, 3}, true},
		{"outside left", Point{-0.01, 3}, false},
		{"outside top", Point{5, 5.01}, false},
		{"far away", Point{100, 100}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestRectIntersects(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	tests := []struct {
		name string
		s    Rect
		want bool
	}{
		{"identical", NewRect(0, 0, 10, 10), true},
		{"contained", NewRect(2, 2, 4, 4), true},
		{"containing", NewRect(-5, -5, 15, 15), true},
		{"overlap corner", NewRect(9, 9, 12, 12), true},
		{"touch edge", NewRect(10, 0, 20, 10), true},
		{"touch corner", NewRect(10, 10, 20, 20), true},
		{"disjoint right", NewRect(10.001, 0, 20, 10), false},
		{"disjoint above", NewRect(0, 11, 10, 20), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Intersects(tt.s); got != tt.want {
				t.Errorf("Intersects(%v) = %v, want %v", tt.s, got, tt.want)
			}
			// Intersection is symmetric.
			if got := tt.s.Intersects(r); got != tt.want {
				t.Errorf("symmetric Intersects(%v) = %v, want %v", tt.s, got, tt.want)
			}
		})
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("Intersect reported disjoint for overlapping rects")
	}
	want := NewRect(5, 5, 10, 10)
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if _, ok := a.Intersect(NewRect(20, 20, 30, 30)); ok {
		t.Error("Intersect reported overlap for disjoint rects")
	}
}

func TestRectUnion(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(5, -2, 6, 0.5)
	got := a.Union(b)
	want := NewRect(0, -2, 6, 1)
	if got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
}

func TestSplitXY(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	l, rr := r.SplitX(4)
	if l.Max.X != 4 || rr.Min.X != 4 {
		t.Errorf("SplitX(4) = %v, %v", l, rr)
	}
	if l.Area()+rr.Area() != r.Area() {
		t.Errorf("SplitX areas %v + %v != %v", l.Area(), rr.Area(), r.Area())
	}
	b, tp := r.SplitY(7)
	if b.Max.Y != 7 || tp.Min.Y != 7 {
		t.Errorf("SplitY(7) = %v, %v", b, tp)
	}
	// Split line outside the rect clamps.
	l, rr = r.SplitX(-5)
	if l.Width() != 0 || rr.Width() != 10 {
		t.Errorf("SplitX(-5) widths = %v, %v", l.Width(), rr.Width())
	}
}

func TestRectAround(t *testing.T) {
	c := Point{X: -74.0, Y: 40.7} // New York-ish
	r := RectAround(c, 10, 10)
	if !r.Contains(c) {
		t.Fatalf("RectAround does not contain its center: %v vs %v", r, c)
	}
	heightKm := r.Height() * KmPerDegreeLat
	if math.Abs(heightKm-10) > 1e-9 {
		t.Errorf("height = %v km, want 10", heightKm)
	}
	// Width in km at the center latitude should also be ~10.
	widthKm := r.Width() * KmPerDegreeLat * math.Cos(c.Y*math.Pi/180)
	if math.Abs(widthKm-10) > 1e-9 {
		t.Errorf("width = %v km, want 10", widthKm)
	}
}

func TestClip(t *testing.T) {
	bounds := NewRect(0, 0, 10, 10)
	in := NewRect(-5, 3, 5, 20)
	got := in.Clip(bounds)
	want := NewRect(0, 3, 5, 10)
	if got != want {
		t.Errorf("Clip = %v, want %v", got, want)
	}
	// Disjoint clip collapses to a degenerate rect inside bounds.
	got = NewRect(20, 20, 30, 30).Clip(bounds)
	if !bounds.Contains(got.Min) || got.Area() != 0 {
		t.Errorf("disjoint Clip = %v, want degenerate in bounds", got)
	}
}

// Property: intersection of two valid rectangles, when reported, is
// contained in both and symmetric.
func TestIntersectProperty(t *testing.T) {
	f := func(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 float64) bool {
		a := NewRect(norm(ax1), norm(ay1), norm(ax2), norm(ay2))
		b := NewRect(norm(bx1), norm(by1), norm(bx2), norm(by2))
		got, ok := a.Intersect(b)
		got2, ok2 := b.Intersect(a)
		if ok != ok2 || got != got2 {
			return false
		}
		if !ok {
			return !a.Intersects(b)
		}
		return a.ContainsRect(got) && b.ContainsRect(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: union contains both inputs.
func TestUnionProperty(t *testing.T) {
	f := func(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 float64) bool {
		a := NewRect(norm(ax1), norm(ay1), norm(ax2), norm(ay2))
		b := NewRect(norm(bx1), norm(by1), norm(bx2), norm(by2))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// norm maps arbitrary float64 values (possibly NaN/Inf from quick) into a
// sane finite coordinate range.
func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 180)
}

func TestStringersAndDerivedGeometry(t *testing.T) {
	p := Point{X: -73.95, Y: 40.7}
	if got := p.String(); got != "(-73.95000,40.70000)" {
		t.Errorf("Point.String = %q", got)
	}
	r := NewRect(0, 0, 10, 20)
	if got := r.String(); got != "[(0.00000,0.00000) (10.00000,20.00000)]" {
		t.Errorf("Rect.String = %q", got)
	}
	if c := r.Center(); c.X != 5 || c.Y != 10 {
		t.Errorf("Center = %v", c)
	}
	e := r.Expand(2)
	if e.Min.X != -2 || e.Min.Y != -2 || e.Max.X != 12 || e.Max.Y != 22 {
		t.Errorf("Expand = %v", e)
	}
	if !e.ContainsRect(r) {
		t.Error("Expand did not grow the rectangle")
	}
}

// Expand then shrink by the same margin is the identity for valid rects.
func TestExpandRoundTripProperty(t *testing.T) {
	f := func(x1, y1, x2, y2, d float64) bool {
		r := NewRect(norm(x1), norm(y1), norm(x2), norm(y2))
		m := math.Abs(norm(d))
		back := r.Expand(m).Expand(-m)
		const eps = 1e-9
		return math.Abs(back.Min.X-r.Min.X) < eps && math.Abs(back.Max.Y-r.Max.Y) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Package grid implements the uniform spatial grid shared by the gridt
// dispatcher index (§IV-C) and the GI2 worker index (§IV-D). The paper sets
// the granularity to 2^6 × 2^6 cells; Grid supports any rectangular
// resolution.
package grid

import (
	"fmt"

	"ps2stream/internal/geo"
)

// DefaultGranularity is the per-axis cell count used in the paper's
// evaluation ("We set its granularity as 2^6 × 2^6").
const DefaultGranularity = 64

// Grid divides a bounding rectangle into NX × NY equal cells. Cell ids are
// row-major: id = y*NX + x with (0,0) at the minimum corner. Points outside
// the bounds are clamped to the nearest boundary cell, so CellOf is total.
type Grid struct {
	bounds geo.Rect
	nx, ny int
	cw, ch float64 // cell width/height in degrees
}

// New returns a grid over bounds with nx × ny cells. nx and ny are clamped
// to at least 1. Degenerate bounds (zero width or height) are handled by
// treating every point as falling into column/row 0.
func New(bounds geo.Rect, nx, ny int) *Grid {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	g := &Grid{bounds: bounds, nx: nx, ny: ny}
	g.cw = bounds.Width() / float64(nx)
	g.ch = bounds.Height() / float64(ny)
	return g
}

// Bounds returns the grid's bounding rectangle.
func (g *Grid) Bounds() geo.Rect { return g.bounds }

// NX returns the number of columns.
func (g *Grid) NX() int { return g.nx }

// NY returns the number of rows.
func (g *Grid) NY() int { return g.ny }

// NumCells returns NX*NY.
func (g *Grid) NumCells() int { return g.nx * g.ny }

// ColOf returns the column index for x, clamped into [0, NX).
func (g *Grid) ColOf(x float64) int {
	if g.cw <= 0 {
		return 0
	}
	c := int((x - g.bounds.Min.X) / g.cw)
	return clampInt(c, 0, g.nx-1)
}

// RowOf returns the row index for y, clamped into [0, NY).
func (g *Grid) RowOf(y float64) int {
	if g.ch <= 0 {
		return 0
	}
	r := int((y - g.bounds.Min.Y) / g.ch)
	return clampInt(r, 0, g.ny-1)
}

// CellOf returns the row-major cell id containing p (clamped into bounds).
func (g *Grid) CellOf(p geo.Point) int {
	return g.RowOf(p.Y)*g.nx + g.ColOf(p.X)
}

// CellXY returns the (column, row) of cell id.
func (g *Grid) CellXY(id int) (x, y int) {
	return id % g.nx, id / g.nx
}

// CellID returns the id of the cell at (column, row).
func (g *Grid) CellID(x, y int) int { return y*g.nx + x }

// CellRect returns the rectangle covered by cell id.
func (g *Grid) CellRect(id int) geo.Rect {
	x, y := g.CellXY(id)
	minX := g.bounds.Min.X + float64(x)*g.cw
	minY := g.bounds.Min.Y + float64(y)*g.ch
	maxX := minX + g.cw
	maxY := minY + g.ch
	// Ensure the outermost cells reach the exact bounds despite floating
	// point accumulation.
	if x == g.nx-1 {
		maxX = g.bounds.Max.X
	}
	if y == g.ny-1 {
		maxY = g.bounds.Max.Y
	}
	return geo.Rect{Min: geo.Point{X: minX, Y: minY}, Max: geo.Point{X: maxX, Y: maxY}}
}

// CellsOverlapping returns the ids of all cells intersecting r, in
// ascending order. Rectangles outside the bounds are clamped, so the
// nearest boundary cells are returned (the dispatcher must route queries
// whose regions partially leave the monitored space).
func (g *Grid) CellsOverlapping(r geo.Rect) []int {
	x0 := g.ColOf(r.Min.X)
	x1 := g.ColOf(r.Max.X)
	y0 := g.RowOf(r.Min.Y)
	y1 := g.RowOf(r.Max.Y)
	out := make([]int, 0, (x1-x0+1)*(y1-y0+1))
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			out = append(out, g.CellID(x, y))
		}
	}
	return out
}

// VisitOverlapping calls fn for each cell id intersecting r, avoiding the
// slice allocation of CellsOverlapping on hot paths.
func (g *Grid) VisitOverlapping(r geo.Rect, fn func(id int)) {
	x0 := g.ColOf(r.Min.X)
	x1 := g.ColOf(r.Max.X)
	y0 := g.RowOf(r.Min.Y)
	y1 := g.RowOf(r.Max.Y)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			fn(g.CellID(x, y))
		}
	}
}

// String implements fmt.Stringer.
func (g *Grid) String() string {
	return fmt.Sprintf("grid %dx%d over %s", g.nx, g.ny, g.bounds)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

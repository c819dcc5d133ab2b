package partition

import (
	"ps2stream/internal/index/grid"
	"ps2stream/internal/index/kdtree"
	"ps2stream/internal/model"
)

// SpaceAssignment routes by location only: the space is rasterised onto a
// uniform grid and every cell is owned by exactly one worker. Objects go
// to the owner of their cell; queries go to the owners of every cell their
// region overlaps. The kd-tree baseline is expressed this way — the paper
// likewise transforms the kd-tree "to a grid index to accelerate the
// workload distribution in the dispatchers".
type SpaceAssignment struct {
	name      string
	m         int
	g         *grid.Grid
	cellOwner []int
}

// NewSpaceAssignment wraps an explicit cell→worker map.
func NewSpaceAssignment(name string, m int, g *grid.Grid, cellOwner []int) *SpaceAssignment {
	return &SpaceAssignment{name: name, m: m, g: g, cellOwner: cellOwner}
}

// RouteObject implements Assignment.
func (a *SpaceAssignment) RouteObject(o *model.Object) []int {
	return []int{a.cellOwner[a.g.CellOf(o.Loc)]}
}

// RouteQuery implements Assignment.
func (a *SpaceAssignment) RouteQuery(q *model.Query, insert bool) []int {
	var mask uint64
	a.g.VisitOverlapping(q.Region, func(id int) {
		mask |= 1 << uint(a.cellOwner[id])
	})
	return workersFromMask(mask, nil)
}

// NumWorkers implements Assignment.
func (a *SpaceAssignment) NumWorkers() int { return a.m }

// Name implements Assignment.
func (a *SpaceAssignment) Name() string { return a.name }

// Footprint implements Assignment.
func (a *SpaceAssignment) Footprint() int64 {
	return int64(len(a.cellOwner))*8 + 64
}

// CellOwners exposes the raster for tests and migration bookkeeping.
func (a *SpaceAssignment) CellOwners() []int { return a.cellOwner }

// Grid exposes the raster geometry.
func (a *SpaceAssignment) Grid() *grid.Grid { return a.g }

// KDTreeBuilder implements the kd-tree space-partitioning baseline of
// AQWA [21] and Tornado [26]: a kd-tree over the sampled objects is split
// to m load-balanced leaves, one per worker, then rasterised to a grid.
// A sample with no objects has no median to cut at: the space is then cut
// by geometry into m equal pieces, one per worker.
type KDTreeBuilder struct {
	Granularity int
}

// Name implements Builder.
func (KDTreeBuilder) Name() string { return "kdtree" }

// Build implements Builder.
func (b KDTreeBuilder) Build(s *Sample, m int) (Assignment, error) {
	if err := validateWorkers(m); err != nil {
		return nil, err
	}
	gran := b.Granularity
	if gran <= 0 {
		gran = grid.DefaultGranularity
	}
	g := grid.New(s.Bounds, gran, gran)
	owner := make([]int, g.NumCells())
	if len(s.Objects) == 0 {
		pieces := s.Bounds.SplitEvenly(m)
		for id := range owner {
			c := g.CellRect(id).Center()
			for w, p := range pieces {
				if p.Contains(c) {
					owner[id] = w
					break
				}
			}
		}
		return NewSpaceAssignment("kdtree", m, g, owner), nil
	}
	items := make([]kdtree.Item, len(s.Objects))
	for i, o := range s.Objects {
		items[i] = kdtree.Item{P: o.Loc, W: 1}
	}
	tree := kdtree.Build(s.Bounds, items, m)
	for id := range owner {
		leaf := tree.Locate(g.CellRect(id).Center())
		owner[id] = leaf.LeafID % m
	}
	return NewSpaceAssignment("kdtree", m, g, owner), nil
}

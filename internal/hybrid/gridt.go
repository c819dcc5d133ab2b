package hybrid

import (
	"hash/fnv"
	"math/bits"
	"reflect"
	"sort"
	"sync"

	"ps2stream/internal/geo"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/textutil"
)

// GridT is the dispatcher-side index of §IV-C: a uniform grid where each
// cell carries two hash maps, H1 (the complete term partition: term →
// worker) and H2 (registration keys of live queries → worker). Cells
// covered by a space-partitioned kdt-tree leaf store a single worker and a
// trivial H1; cells under text-partitioned leaves resolve terms through H1
// with a deterministic hash fallback for unseen terms.
//
// GridT implements partition.Assignment and additionally supports the cell
// mutations required by dynamic load adjustment (§V): reassigning a space
// cell, reassigning a worker's text share, splitting a space cell by text,
// and merging text shares.
type GridT struct {
	m     int
	g     *grid.Grid
	stats *textutil.Stats

	// mus stripes the cell locks: a cell's lock is mus[cell % lockStripes],
	// so the four dispatcher tasks rarely contend.
	mus   [lockStripes]sync.RWMutex
	cells []gridtCell
}

// lockStripes is the number of lock stripes (power of two).
const lockStripes = 64

// lockFor returns the stripe lock guarding the cell.
func (gt *GridT) lockFor(cell int) *sync.RWMutex {
	return &gt.mus[cell&(lockStripes-1)]
}

type gridtCell struct {
	// worker is the owning worker for space cells, or -1 for text cells.
	worker int
	// h1 maps terms to workers for text cells. It may be shared between
	// cells built from the same kdt-tree leaf; sharedH1 marks it
	// copy-on-write.
	h1       map[string]int
	sharedH1 bool
	// fallback lists the candidate workers for terms absent from h1,
	// indexed by hash (text cells only).
	fallback []int
	// h2 tracks live registration keys: worker routed to and reference
	// count.
	h2 map[string]h2Entry
}

type h2Entry struct {
	worker int
	count  int
}

var _ partition.Assignment = (*GridT)(nil)

// buildGridT rasterises the final units onto the gridt index.
func buildGridT(s *partition.Sample, m int, cfg Config, units []*unit, owners []int) *GridT {
	g := grid.New(s.Bounds, cfg.Granularity, cfg.Granularity)
	gt := &GridT{m: m, g: g, stats: s.Stats, cells: make([]gridtCell, g.NumCells())}

	// Precompute shared H1 maps per sibling group of text units.
	type groupInfo struct {
		h1       map[string]int
		fallback []int
	}
	groups := make(map[*unit]*groupInfo) // keyed by first sibling
	ownerOf := make(map[*unit]int, len(units))
	for i, u := range units {
		ownerOf[u] = owners[i]
	}
	groupFor := func(u *unit) *groupInfo {
		sibs := u.siblings
		if len(sibs) == 0 {
			sibs = []*unit{u}
		}
		key := sibs[0]
		if gi, ok := groups[key]; ok {
			return gi
		}
		gi := &groupInfo{h1: make(map[string]int)}
		for _, sib := range sibs {
			w, ok := ownerOf[sib]
			if !ok {
				continue // sibling replaced by a later split; its children carry the keys
			}
			for k := range sib.keys {
				gi.h1[k] = w
			}
			gi.fallback = append(gi.fallback, w)
		}
		sort.Ints(gi.fallback)
		groups[key] = gi
		return gi
	}

	for id := 0; id < g.NumCells(); id++ {
		center := g.CellRect(id).Center()
		var covering []*unit
		for _, u := range units {
			if u.bounds.Contains(center) {
				covering = append(covering, u)
			}
		}
		c := &gt.cells[id]
		c.worker = 0
		c.h2 = nil // allocated lazily
		if len(covering) == 0 {
			// Float edge case: snap to the nearest unit.
			best, bestD := 0, -1.0
			for i, u := range units {
				d := rectDist(u.bounds, center)
				if bestD < 0 || d < bestD {
					best, bestD = i, d
				}
			}
			covering = []*unit{units[best]}
		}
		// Smallest-area covering units are the authoritative leaves
		// (same-bounds text siblings tie; a boundary-adjacent larger
		// node loses).
		minArea := covering[0].bounds.Area()
		for _, u := range covering[1:] {
			if a := u.bounds.Area(); a < minArea {
				minArea = a
			}
		}
		var leaves []*unit
		for _, u := range covering {
			if u.bounds.Area() <= minArea+1e-12 {
				leaves = append(leaves, u)
			}
		}
		if len(leaves) == 1 && !leaves[0].isText() {
			c.worker = ownerOf[leaves[0]]
			continue
		}
		// Text cell: merge the H1 info of every covering text group. The
		// common case is a single group, whose H1 map is shared across
		// all the leaf's cells (copy-on-write on later mutation).
		c.worker = -1
		seen := map[*groupInfo]bool{}
		var gis []*groupInfo
		var fb []int
		for _, u := range leaves {
			if !u.isText() {
				// A space leaf sharing bounds with text leaves should
				// not occur; treat its owner as a fallback route.
				fb = append(fb, ownerOf[u])
				continue
			}
			gi := groupFor(u)
			if seen[gi] {
				continue
			}
			seen[gi] = true
			gis = append(gis, gi)
			fb = append(fb, gi.fallback...)
		}
		switch len(gis) {
		case 0:
			c.h1 = map[string]int{}
		case 1:
			c.h1 = gis[0].h1
			c.sharedH1 = true
		default:
			merged := make(map[string]int)
			for _, gi := range gis {
				for k, w := range gi.h1 {
					merged[k] = w
				}
			}
			c.h1 = merged
		}
		if len(fb) == 0 {
			fb = []int{0}
		}
		sort.Ints(fb)
		c.fallback = fb
	}
	return gt
}

func rectDist(r geo.Rect, p geo.Point) float64 {
	dx := 0.0
	if p.X < r.Min.X {
		dx = r.Min.X - p.X
	} else if p.X > r.Max.X {
		dx = p.X - r.Max.X
	}
	dy := 0.0
	if p.Y < r.Min.Y {
		dy = r.Min.Y - p.Y
	} else if p.Y > r.Max.Y {
		dy = p.Y - r.Max.Y
	}
	return dx*dx + dy*dy
}

// ownerOfTerm resolves a term in a text cell: H1 first, then the hash
// fallback over the cell's worker list. Caller holds the lock.
func (c *gridtCell) ownerOfTerm(term string) int {
	if w, ok := c.h1[term]; ok {
		return w
	}
	h := fnv.New32a()
	h.Write([]byte(term))
	return c.fallback[int(h.Sum32())%len(c.fallback)]
}

// RouteObject implements partition.Assignment. Per §IV-C the dispatcher
// looks the object's terms up in the cell's H2 and discards objects
// matching no live registration key. Callers must not modify the result:
// a single-worker answer is a slice shared by every call.
//
// In a space cell every live H2 entry names the cell's worker (RouteQuery
// installs c.worker, ReassignSpaceCell rewrites every entry,
// MergeTextShares collapses a text cell only when its entries agree), so
// the first live term decides.
func (gt *GridT) RouteObject(o *model.Object) []int {
	id := gt.g.CellOf(o.Loc)
	var mask uint64
	mu := gt.lockFor(id)
	mu.RLock()
	c := &gt.cells[id]
	for _, t := range o.Terms {
		if e, ok := c.h2[t]; ok && e.count > 0 {
			mask |= 1 << uint(e.worker)
			if c.worker >= 0 {
				break
			}
		}
	}
	mu.RUnlock()
	if bits.OnesCount64(mask) == 1 {
		return oneWorker[bits.TrailingZeros64(mask)][:]
	}
	return maskToWorkers(mask)
}

// oneWorker[w] backs RouteObject's answer {w}, so that the common object,
// which has one target, costs no allocation.
var oneWorker = func() (t [64][1]int) {
	for w := range t {
		t[w][0] = w
	}
	return t
}()

// RouteQuery implements partition.Assignment. The insertion updates H2 in
// every overlapped cell; deletions decrement it.
func (gt *GridT) RouteQuery(q *model.Query, insert bool) []int {
	keys := gt.stats.RegistrationKeys(q.Expr.Conj)
	var mask uint64
	gt.g.VisitOverlapping(q.Region, func(id int) {
		mu := gt.lockFor(id)
		mu.Lock()
		defer mu.Unlock()
		c := &gt.cells[id]
		for _, k := range keys {
			var w int
			if e, ok := c.h2[k]; ok && e.count > 0 {
				w = e.worker
			} else if c.worker >= 0 {
				w = c.worker
			} else {
				w = c.ownerOfTerm(k)
			}
			mask |= 1 << uint(w)
			if insert {
				if c.h2 == nil {
					c.h2 = make(map[string]h2Entry)
				}
				e := c.h2[k]
				e.worker = w
				e.count++
				c.h2[k] = e
			} else if e, ok := c.h2[k]; ok {
				e.count--
				if e.count <= 0 {
					delete(c.h2, k)
				} else {
					c.h2[k] = e
				}
			}
		}
	})
	return maskToWorkers(mask)
}

// PeekQuery reports where q routes under the current table without
// touching H2's registration counts — RouteQuery with insert=false is
// delete-routing and decrements them, so bookkeeping that only needs to
// *ask* (e.g. "does the migration source still hold this query through
// another cell?") must use this read-only probe instead.
func (gt *GridT) PeekQuery(q *model.Query) []int {
	keys := gt.stats.RegistrationKeys(q.Expr.Conj)
	var mask uint64
	gt.g.VisitOverlapping(q.Region, func(id int) {
		mu := gt.lockFor(id)
		mu.RLock()
		defer mu.RUnlock()
		c := &gt.cells[id]
		for _, k := range keys {
			var w int
			if e, ok := c.h2[k]; ok && e.count > 0 {
				w = e.worker
			} else if c.worker >= 0 {
				w = c.worker
			} else {
				w = c.ownerOfTerm(k)
			}
			mask |= 1 << uint(w)
		}
	})
	return maskToWorkers(mask)
}

func maskToWorkers(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for mask != 0 {
		w := bits.TrailingZeros64(mask)
		out = append(out, w)
		mask &^= 1 << uint(w)
	}
	return out
}

// NumWorkers implements partition.Assignment.
func (gt *GridT) NumWorkers() int { return gt.m }

// Name implements partition.Assignment.
func (gt *GridT) Name() string { return "hybrid" }

// Grid exposes the raster geometry (shared with worker GI2 indexes).
func (gt *GridT) Grid() *grid.Grid { return gt.g }

// Stats exposes the term-frequency table used for registration keys.
func (gt *GridT) Stats() *textutil.Stats { return gt.stats }

// Footprint implements partition.Assignment (Figure 9's dispatcher
// memory). H1 maps shared between cells are counted once, using the map's
// runtime identity.
func (gt *GridT) Footprint() int64 {
	var b int64
	seenH1 := make(map[uintptr]bool)
	for i := range gt.cells {
		mu := gt.lockFor(i)
		mu.RLock()
		c := &gt.cells[i]
		b += 24 // cell header
		if c.h1 != nil {
			p := reflect.ValueOf(c.h1).Pointer()
			if !seenH1[p] {
				seenH1[p] = true
				for t := range c.h1 {
					b += int64(len(t)) + 24
				}
			}
		}
		b += int64(len(c.fallback)) * 8
		for t := range c.h2 {
			b += int64(len(t)) + 32
		}
		mu.RUnlock()
	}
	return b
}

// IsTextCell reports whether the cell routes through H1/H2 term maps.
func (gt *GridT) IsTextCell(cellID int) bool {
	mu := gt.lockFor(cellID)
	mu.RLock()
	defer mu.RUnlock()
	return gt.cells[cellID].worker < 0
}

// CellWorkers returns the distinct workers currently serving a cell.
func (gt *GridT) CellWorkers(cellID int) []int {
	mu := gt.lockFor(cellID)
	mu.RLock()
	defer mu.RUnlock()
	c := &gt.cells[cellID]
	if c.worker >= 0 {
		return []int{c.worker}
	}
	var mask uint64
	for _, w := range c.fallback {
		mask |= 1 << uint(w)
	}
	for _, w := range c.h1 {
		mask |= 1 << uint(w)
	}
	for _, e := range c.h2 {
		mask |= 1 << uint(e.worker)
	}
	return maskToWorkers(mask)
}

// ReassignSpaceCell points a space cell at a new worker, returning the
// previous owner. It is the routing half of migrating a space cell; the
// caller moves the corresponding GI2 queries. Calling it on a text cell
// returns -1 without changes.
func (gt *GridT) ReassignSpaceCell(cellID, to int) int {
	mu := gt.lockFor(cellID)
	mu.Lock()
	defer mu.Unlock()
	c := &gt.cells[cellID]
	if c.worker < 0 {
		return -1
	}
	old := c.worker
	c.worker = to
	for k, e := range c.h2 {
		if e.worker == old {
			e.worker = to
			c.h2[k] = e
		}
	}
	return old
}

// ReassignTextShare moves every term owned by from in a text cell to to
// (H1, fallback slots, and live H2 entries). It returns the number of H2
// keys moved. No-op on space cells.
func (gt *GridT) ReassignTextShare(cellID, from, to int) int {
	mu := gt.lockFor(cellID)
	mu.Lock()
	defer mu.Unlock()
	c := &gt.cells[cellID]
	if c.worker >= 0 {
		return 0
	}
	gt.ensureOwnH1(c)
	for t, w := range c.h1 {
		if w == from {
			c.h1[t] = to
		}
	}
	for i, w := range c.fallback {
		if w == from {
			c.fallback[i] = to
		}
	}
	moved := 0
	for k, e := range c.h2 {
		if e.worker == from {
			e.worker = to
			c.h2[k] = e
			moved++
		}
	}
	return moved
}

// SplitSpaceCellByText converts a space cell into a text cell, moving the
// given registration keys to worker to while everything else stays with
// the previous owner (Phase I of local load adjustment: "after using
// text-partitioning to partition g_s into two new cells g_1 and g_2 ...
// migrate the cell having a smaller size"). Returns the previous owner, or
// -1 if the cell was already text-partitioned.
func (gt *GridT) SplitSpaceCellByText(cellID int, keys []string, to int) int {
	mu := gt.lockFor(cellID)
	mu.Lock()
	defer mu.Unlock()
	c := &gt.cells[cellID]
	if c.worker < 0 {
		return -1
	}
	old := c.worker
	c.worker = -1
	c.h1 = make(map[string]int, len(keys))
	c.sharedH1 = false
	for _, k := range keys {
		c.h1[k] = to
	}
	c.fallback = []int{old}
	for k, e := range c.h2 {
		if _, moved := c.h1[k]; moved {
			e.worker = to
			c.h2[k] = e
		}
	}
	return old
}

// MergeTextShares reroutes worker from's share of a text cell to worker
// to, and collapses the cell back to a space cell when a single worker
// remains ("we check whether migrating g_t to w_l and merging g_t and g'_t
// can reduce the total load"). Returns the number of H2 keys moved.
func (gt *GridT) MergeTextShares(cellID, from, to int) int {
	moved := gt.ReassignTextShare(cellID, from, to)
	mu := gt.lockFor(cellID)
	mu.Lock()
	defer mu.Unlock()
	c := &gt.cells[cellID]
	if c.worker >= 0 {
		return moved
	}
	only := -1
	uniform := true
	check := func(w int) {
		if only == -1 {
			only = w
		} else if only != w {
			uniform = false
		}
	}
	for _, w := range c.h1 {
		check(w)
	}
	for _, w := range c.fallback {
		check(w)
	}
	for _, e := range c.h2 {
		check(e.worker)
	}
	if uniform && only >= 0 {
		c.worker = only
		c.h1 = nil
		c.fallback = nil
		c.sharedH1 = false
	}
	return moved
}

// H2Keys returns the live registration keys of a cell routed to the given
// worker. Used by migration to extract the matching GI2 entries.
func (gt *GridT) H2Keys(cellID, worker int) []string {
	mu := gt.lockFor(cellID)
	mu.RLock()
	defer mu.RUnlock()
	c := &gt.cells[cellID]
	var out []string
	for k, e := range c.h2 {
		if e.worker == worker && e.count > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// ensureOwnH1 clones a shared H1 map before mutation (copy-on-write).
// Caller holds the write lock.
func (gt *GridT) ensureOwnH1(c *gridtCell) {
	if !c.sharedH1 {
		return
	}
	clone := make(map[string]int, len(c.h1))
	for k, v := range c.h1 {
		clone[k] = v
	}
	c.h1 = clone
	c.sharedH1 = false
}

// Package kdtree implements a weighted kd-tree over points, used by the
// kd-tree space-partitioning baseline ([21][26], §VI-B) and as the spatial
// splitting machinery of the hybrid partitioner. Leaves are produced by
// repeatedly splitting the heaviest leaf at the weighted median, yielding a
// load-balanced partition of the space into a requested number of leaf
// regions.
package kdtree

import (
	"sort"

	"ps2stream/internal/geo"
)

// Item is a weighted point: for workload partitioning the weight is the
// estimated load contribution of an object (or a sample thereof).
type Item struct {
	P geo.Point
	W float64
}

// Node is a kd-tree node. Leaf nodes have LeafID >= 0 and nil children;
// internal nodes carry the split dimension (0 = X, 1 = Y) and value.
type Node struct {
	Bounds   geo.Rect
	Weight   float64
	SplitDim int
	SplitVal float64
	Left     *Node
	Right    *Node
	LeafID   int
	items    []Item
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a kd-tree whose leaves partition the bounding rectangle.
type Tree struct {
	root   *Node
	leaves []*Node
}

// Build constructs a tree over bounds containing items, splitting until
// maxLeaves leaves exist (or no leaf can be split further). Splits occur at
// the weighted median along the dimension with the larger bounds extent,
// falling back to the other dimension when all items share a coordinate.
func Build(bounds geo.Rect, items []Item, maxLeaves int) *Tree {
	if maxLeaves < 1 {
		maxLeaves = 1
	}
	root := &Node{Bounds: bounds, items: append([]Item(nil), items...)}
	for _, it := range root.items {
		root.Weight += it.W
	}
	t := &Tree{root: root, leaves: []*Node{root}}
	for len(t.leaves) < maxLeaves {
		// Pick the heaviest splittable leaf.
		best := -1
		for i, l := range t.leaves {
			if len(l.items) < 2 {
				continue
			}
			if best == -1 || l.Weight > t.leaves[best].Weight {
				best = i
			}
		}
		if best == -1 {
			break
		}
		leaf := t.leaves[best]
		left, right, ok := splitLeaf(leaf)
		if !ok {
			// Mark unsplittable by dropping its items reference so it is
			// skipped next round.
			leaf.items = leaf.items[:min(len(leaf.items), 1)]
			continue
		}
		leaf.Left, leaf.Right = left, right
		leaf.items = nil
		t.leaves[best] = left
		t.leaves = append(t.leaves, right)
	}
	for i, l := range t.leaves {
		l.LeafID = i
	}
	return t
}

// splitLeaf splits at the weighted median along the preferred dimension.
func splitLeaf(n *Node) (left, right *Node, ok bool) {
	dims := []int{0, 1}
	if n.Bounds.Height() > n.Bounds.Width() {
		dims = []int{1, 0}
	}
	for _, dim := range dims {
		if l, r, ok := splitAtMedian(n, dim); ok {
			return l, r, true
		}
	}
	return nil, nil, false
}

func coord(p geo.Point, dim int) float64 {
	if dim == 0 {
		return p.X
	}
	return p.Y
}

func splitAtMedian(n *Node, dim int) (left, right *Node, ok bool) {
	items := append([]Item(nil), n.items...)
	sort.Slice(items, func(i, j int) bool {
		return coord(items[i].P, dim) < coord(items[j].P, dim)
	})
	lo := coord(items[0].P, dim)
	hi := coord(items[len(items)-1].P, dim)
	if lo == hi {
		return nil, nil, false
	}
	var total float64
	for _, it := range items {
		total += it.W
	}
	// Find the first index where the cumulative weight reaches half, then
	// move to a coordinate boundary so the split separates items.
	var cum float64
	idx := 0
	for i, it := range items {
		cum += it.W
		if cum >= total/2 {
			idx = i
			break
		}
	}
	// Advance idx to the end of its coordinate group; split after it.
	for idx+1 < len(items) && coord(items[idx+1].P, dim) == coord(items[idx].P, dim) {
		idx++
	}
	if idx+1 >= len(items) {
		// All mass on the last group: split before the group instead.
		v := coord(items[idx].P, dim)
		idx = -1
		for i, it := range items {
			if coord(it.P, dim) == v {
				break
			}
			idx = i
		}
		if idx < 0 {
			return nil, nil, false
		}
	}
	splitVal := (coord(items[idx].P, dim) + coord(items[idx+1].P, dim)) / 2
	var lb, rb geo.Rect
	if dim == 0 {
		lb, rb = n.Bounds.SplitX(splitVal)
	} else {
		lb, rb = n.Bounds.SplitY(splitVal)
	}
	left = &Node{Bounds: lb, LeafID: -1}
	right = &Node{Bounds: rb, LeafID: -1}
	for _, it := range items {
		if coord(it.P, dim) <= splitVal {
			left.items = append(left.items, it)
			left.Weight += it.W
		} else {
			right.items = append(right.items, it)
			right.Weight += it.W
		}
	}
	if len(left.items) == 0 || len(right.items) == 0 {
		return nil, nil, false
	}
	n.SplitDim = dim
	n.SplitVal = splitVal
	return left, right, true
}

// Leaves returns the leaf nodes in LeafID order.
func (t *Tree) Leaves() []*Node { return t.leaves }

// Locate returns the leaf whose region contains p. Points outside the root
// bounds are resolved by following the split comparisons, which yields the
// nearest boundary leaf.
func (t *Tree) Locate(p geo.Point) *Node {
	n := t.root
	for !n.IsLeaf() {
		if coord(p, n.SplitDim) <= n.SplitVal {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// LeavesOverlapping returns all leaves whose bounds intersect r.
func (t *Tree) LeavesOverlapping(r geo.Rect) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if !n.Bounds.Intersects(r) {
			return
		}
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.root)
	return out
}

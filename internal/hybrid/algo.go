// Package hybrid implements the paper's primary contribution: the hybrid
// workload-partitioning algorithm (§IV, Algorithm 1) producing a kdt-tree —
// a kd-tree whose leaves may be further partitioned by text — and the
// gridt dispatcher index derived from it (§IV-C).
//
// The algorithm has two phases. Phase one recursively splits the space,
// classifying subspaces into N_s (objects and queries textually similar:
// keep space-partitioning available) and N_t (textually dissimilar:
// text-partition them). Phase two computes how many partitions each
// subspace should be divided into (a dynamic program minimising total
// load), partitions each node by the cheaper of text- and
// space-partitioning, and merges the resulting units onto m workers while
// enforcing the balance constraint L_max/L_min ≤ σ.
package hybrid

import (
	"fmt"
	"math"
	"sort"

	"ps2stream/internal/geo"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/textutil"
)

// Config holds the tunables of Algorithm 1.
type Config struct {
	// Delta is the text-similarity threshold δ: nodes with
	// simt(O_n, Q_n) ≥ δ go to N_s.
	Delta float64
	// Epsilon bounds |α − simt(O_n,Q_n)| ≈ 0: when splitting cannot
	// reduce similarity by more than Epsilon, the node goes to N_t.
	Epsilon float64
	// Sigma is the balance constraint σ (> 1).
	Sigma float64
	// Theta is θ, the maximum number of partition units.
	Theta int
	// MinNodeObjects stops spatial refinement of sparsely sampled nodes.
	MinNodeObjects int
	// Granularity is the per-axis gridt resolution.
	Granularity int
	// Costs are the Definition 1 constants.
	Costs load.Costs
}

// DefaultConfig mirrors the evaluation setup: granularity 2^6, a balance
// tolerance of 25%, and thresholds found stable across the workloads.
func DefaultConfig() Config {
	return Config{
		Delta:          0.5,
		Epsilon:        0.02,
		Sigma:          1.25,
		Theta:          0, // 0 = 8*m at build time
		MinNodeObjects: 32,
		Granularity:    grid.DefaultGranularity,
		Costs:          load.DefaultCosts,
	}
}

// Builder implements partition.Builder using the hybrid algorithm.
type Builder struct {
	Config Config
}

// Name implements partition.Builder.
func (Builder) Name() string { return "hybrid" }

// Build implements partition.Builder: it runs Algorithm 1 over the sample
// and returns the gridt index as the dispatcher-side Assignment.
func (b Builder) Build(s *partition.Sample, m int) (partition.Assignment, error) {
	if m < 1 {
		return nil, fmt.Errorf("hybrid: need at least 1 worker, got %d", m)
	}
	cfg := b.Config
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	if cfg.Theta <= 0 {
		cfg.Theta = 8 * m
	}
	if cfg.Granularity <= 0 {
		cfg.Granularity = grid.DefaultGranularity
	}
	if cfg.Costs == (load.Costs{}) {
		cfg.Costs = load.DefaultCosts
	}
	units, owners := partitionWorkload(s, m, cfg)
	return buildGridT(s, m, cfg, units, owners), nil
}

// nodeKind classifies phase-one nodes.
type nodeKind uint8

const (
	kindNs nodeKind = iota // similar text distributions: space-partitionable
	kindNt                 // dissimilar: text-partition only
)

// unit is one leaf of the kdt-tree: a subspace, optionally restricted to a
// subset of registration keys (text unit). Units are the items merged onto
// workers and later the grain of splitting in the balance loop.
type unit struct {
	bounds geo.Rect
	kind   nodeKind
	// keys is nil for a unit covering all terms of its subspace (space
	// unit); otherwise the registration keys owned by this text unit.
	keys map[string]struct{}
	// groupIdx/groupOf link sibling text units produced by one split:
	// groupOf[i] is the sibling list; unknown terms hash onto it.
	siblings []*unit

	objects []*model.Object
	queries []*model.Query
	load    float64
}

func (u *unit) isText() bool { return u.keys != nil }

// computeLoad evaluates the Definition 1 estimate for the unit.
func (u *unit) computeLoad(c load.Costs) {
	u.load = c.Node(float64(len(u.objects)), float64(len(u.queries)))
}

// termStats builds the two term-count vectors for simt.
func termStats(objects []*model.Object, queries []*model.Query) (o, q *textutil.Stats) {
	o = textutil.NewStats()
	for _, ob := range objects {
		o.Add(ob.Terms...)
	}
	q = textutil.NewStats()
	for _, qu := range queries {
		q.Add(qu.Expr.Terms()...)
	}
	return o, q
}

func simt(objects []*model.Object, queries []*model.Query) float64 {
	o, q := termStats(objects, queries)
	return textutil.CosineStats(o, q)
}

// partitionWorkload runs Algorithm 1 and returns the final units plus the
// worker index assigned to each unit.
func partitionWorkload(s *partition.Sample, m int, cfg Config) ([]*unit, []int) {
	root := &unit{
		bounds:  s.Bounds,
		kind:    kindNs,
		objects: s.Objects,
		queries: s.Queries,
	}
	root.computeLoad(cfg.Costs)
	if len(s.Objects) == 0 {
		// No object to cut at: m equal pieces of the region, one per
		// worker, instead of one unit that takes every cell. Queries are
		// duplicated by region overlap.
		pieces := s.Bounds.SplitEvenly(m)
		units := make([]*unit, len(pieces))
		owners := make([]int, len(pieces))
		for i, b := range pieces {
			u := &unit{bounds: b, kind: kindNs}
			for _, q := range s.Queries {
				if q.Region.Intersects(b) {
					u.queries = append(u.queries, q)
				}
			}
			u.computeLoad(cfg.Costs)
			units[i], owners[i] = u, i
		}
		return units, owners
	}

	// Phase 1 (Algorithm 1 lines 3–12): classify subspaces into Ns / Nt.
	var nodes []*unit
	queue := []*unit{root}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if len(n.objects) < cfg.MinNodeObjects || len(n.queries) == 0 ||
			len(nodes)+len(queue) >= cfg.Theta {
			n.kind = kindNs
			nodes = append(nodes, n)
			continue
		}
		sim := simt(n.objects, n.queries)
		if sim >= cfg.Delta {
			n.kind = kindNs
			nodes = append(nodes, n)
			continue
		}
		n1, n2, alpha, ok := bestSpatialSplit(n, cfg)
		if !ok || math.Abs(alpha-sim) <= cfg.Epsilon {
			n.kind = kindNt
			nodes = append(nodes, n)
			continue
		}
		queue = append(queue, n1, n2)
	}

	// Phase 2 (lines 13–16): expand nodes to m units where needed.
	units := nodes
	if len(nodes) < m {
		counts := computeNumberPartitions(nodes, m, s.Stats, cfg)
		units = nil
		for i, n := range nodes {
			units = append(units, partitionNode(n, counts[i], s.Stats, cfg)...)
		}
	}

	// Lines 17–27: merge to m partitions, splitting the heaviest node
	// until the balance constraint holds or θ units exist.
	var owners []int
	for {
		owners = mergeNodesIntoPartitions(units, m)
		loads := make([]float64, m)
		for i, u := range units {
			loads[owners[i]] += u.load
		}
		if load.BalanceFactor(loads) <= cfg.Sigma || len(units) >= cfg.Theta {
			break
		}
		// Split the heaviest splittable unit into 2.
		sort.Slice(units, func(i, j int) bool { return units[i].load > units[j].load })
		splitDone := false
		for i, u := range units {
			parts := partitionNode(u, 2, s.Stats, cfg)
			if len(parts) == 2 {
				units = append(units[:i], units[i+1:]...)
				units = append(units, parts...)
				splitDone = true
				break
			}
		}
		if !splitDone {
			break
		}
	}
	return units, owners
}

// bestSpatialSplit splits n in the direction minimising
// α = min(simt(n1), simt(n2)) — Algorithm 1 line 8.
func bestSpatialSplit(n *unit, cfg Config) (a, b *unit, alpha float64, ok bool) {
	type cand struct {
		a, b  *unit
		alpha float64
	}
	var cands []cand
	for dim := 0; dim < 2; dim++ {
		c1, c2, okd := splitUnitSpatially(n, dim, cfg)
		if !okd {
			continue
		}
		al := math.Min(simt(c1.objects, c1.queries), simt(c2.objects, c2.queries))
		cands = append(cands, cand{c1, c2, al})
	}
	if len(cands) == 0 {
		return nil, nil, 0, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.alpha < best.alpha {
			best = c
		}
	}
	return best.a, best.b, best.alpha, true
}

// splitUnitSpatially cuts n at the object-weighted median along dim,
// assigning objects by location and duplicating queries by region overlap.
func splitUnitSpatially(n *unit, dim int, cfg Config) (*unit, *unit, bool) {
	if len(n.objects) < 2 {
		return nil, nil, false
	}
	coords := make([]float64, len(n.objects))
	for i, o := range n.objects {
		if dim == 0 {
			coords[i] = o.Loc.X
		} else {
			coords[i] = o.Loc.Y
		}
	}
	sort.Float64s(coords)
	median := coords[len(coords)/2]
	if coords[0] == coords[len(coords)-1] {
		return nil, nil, false
	}
	// Nudge the cut off the median value when it equals the minimum so
	// both sides are non-empty.
	if median == coords[0] {
		for _, c := range coords {
			if c > median {
				median = (median + c) / 2
				break
			}
		}
	}
	var lb, rb geo.Rect
	if dim == 0 {
		lb, rb = n.bounds.SplitX(median)
	} else {
		lb, rb = n.bounds.SplitY(median)
	}
	a := &unit{bounds: lb, kind: kindNs}
	b := &unit{bounds: rb, kind: kindNs}
	for _, o := range n.objects {
		v := o.Loc.X
		if dim == 1 {
			v = o.Loc.Y
		}
		if v <= median {
			a.objects = append(a.objects, o)
		} else {
			b.objects = append(b.objects, o)
		}
	}
	if len(a.objects) == 0 || len(b.objects) == 0 {
		return nil, nil, false
	}
	for _, q := range n.queries {
		if q.Region.Intersects(lb) {
			a.queries = append(a.queries, q)
		}
		if q.Region.Intersects(rb) {
			b.queries = append(b.queries, q)
		}
	}
	a.computeLoad(cfg.Costs)
	b.computeLoad(cfg.Costs)
	return a, b, true
}

// splitUnitByText partitions the unit's registration keys into p balanced
// groups, duplicating objects that carry keys of several groups and OR
// queries registered under keys in several groups.
func splitUnitByText(n *unit, p int, stats *textutil.Stats, cfg Config) []*unit {
	keyQueries := make(map[string][]*model.Query)
	for _, q := range n.queries {
		for _, k := range stats.RegistrationKeys(q.Expr.Conj) {
			if n.keys != nil {
				if _, ok := n.keys[k]; !ok {
					continue
				}
			}
			keyQueries[k] = append(keyQueries[k], q)
		}
	}
	if len(keyQueries) < p {
		return nil
	}
	keys := make([]string, 0, len(keyQueries))
	for k := range keyQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	weights := make([]float64, len(keys))
	for i, k := range keys {
		weights[i] = float64(len(keyQueries[k])) + float64(stats.Count(k))*0.01
	}
	groupOf := greedyGroups(keys, weights, p)
	units := make([]*unit, p)
	for g := 0; g < p; g++ {
		units[g] = &unit{bounds: n.bounds, kind: kindNt, keys: make(map[string]struct{})}
	}
	for i, k := range keys {
		units[groupOf[i]].keys[k] = struct{}{}
	}
	// Queries: one copy per group owning any of its registration keys.
	for g, u := range units {
		seen := make(map[uint64]struct{})
		for k := range u.keys {
			for _, q := range keyQueries[k] {
				if _, dup := seen[q.ID]; dup {
					continue
				}
				seen[q.ID] = struct{}{}
				u.queries = append(u.queries, q)
			}
		}
		_ = g
	}
	// Objects: duplicated to every group holding at least one of their
	// terms that is an active registration key.
	for _, o := range n.objects {
		var mask uint64
		for _, t := range o.Terms {
			if _, active := keyQueries[t]; !active {
				continue
			}
			for g, u := range units {
				if _, ok := u.keys[t]; ok {
					mask |= 1 << uint(g)
				}
			}
		}
		for g := 0; g < p; g++ {
			if mask&(1<<uint(g)) != 0 {
				units[g].objects = append(units[g].objects, o)
			}
		}
	}
	for _, u := range units {
		u.computeLoad(cfg.Costs)
	}
	for _, u := range units {
		u.siblings = units
	}
	return units
}

// greedyGroups assigns weighted keys to p groups, heaviest first to the
// lightest group.
func greedyGroups(keys []string, weights []float64, p int) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if weights[idx[a]] != weights[idx[b]] {
			return weights[idx[a]] > weights[idx[b]]
		}
		return keys[idx[a]] < keys[idx[b]]
	})
	groupOf := make([]int, len(keys))
	gw := make([]float64, p)
	for _, i := range idx {
		best := 0
		for g := 1; g < p; g++ {
			if gw[g] < gw[best] {
				best = g
			}
		}
		groupOf[i] = best
		gw[best] += weights[i]
	}
	return groupOf
}

// partitionNode implements function PartitionNode: split node n into p
// units. N_t nodes (and text units) are split by text; N_s nodes take
// whichever of text- and space-partitioning yields the smaller total load.
// Returns the units (possibly fewer than p if the node cannot be split
// that far; p == 1 returns the node itself). stats is the global term
// frequency table, shared with the runtime so registration keys agree.
func partitionNode(n *unit, p int, stats *textutil.Stats, cfg Config) []*unit {
	if p <= 1 {
		return []*unit{n}
	}
	if n.kind == kindNt || n.isText() {
		if parts := splitUnitByText(n, p, stats, cfg); parts != nil {
			return parts
		}
		return []*unit{n}
	}
	spaceParts := splitSpatiallyInto(n, p, cfg)
	textParts := splitUnitByText(n, p, stats, cfg)
	switch {
	case spaceParts == nil && textParts == nil:
		return []*unit{n}
	case spaceParts == nil:
		return textParts
	case textParts == nil:
		return spaceParts
	}
	if totalLoad(textParts) < totalLoad(spaceParts) {
		return textParts
	}
	return spaceParts
}

// splitSpatiallyInto produces p space units via recursive median splits
// (heaviest-first), or nil when the node cannot be split spatially.
func splitSpatiallyInto(n *unit, p int, cfg Config) []*unit {
	parts := []*unit{n}
	for len(parts) < p {
		// Split the heaviest part that can split.
		sort.Slice(parts, func(i, j int) bool { return parts[i].load > parts[j].load })
		done := false
		for i, u := range parts {
			dim := 0
			if u.bounds.Height() > u.bounds.Width() {
				dim = 1
			}
			a, b, ok := splitUnitSpatially(u, dim, cfg)
			if !ok {
				a, b, ok = splitUnitSpatially(u, 1-dim, cfg)
			}
			if ok {
				parts = append(parts[:i], parts[i+1:]...)
				parts = append(parts, a, b)
				done = true
				break
			}
		}
		if !done {
			break
		}
	}
	if len(parts) < p {
		return nil
	}
	return parts
}

func totalLoad(us []*unit) float64 {
	var s float64
	for _, u := range us {
		s += u.load
	}
	return s
}

// computeNumberPartitions implements the ComputeNumberPartitions dynamic
// program: choose k_i ≥ 1 partitions per node with Σk_i = m minimising the
// total load Σ C[i,k_i], where C[i,k] is the load after partitioning node
// i into k parts (simulated without committing).
func computeNumberPartitions(nodes []*unit, m int, stats *textutil.Stats, cfg Config) []int {
	n := len(nodes)
	if n == 0 {
		return nil
	}
	// C[i][k], k in 1..m-n+1.
	maxK := m - n + 1
	C := make([][]float64, n)
	for i, nd := range nodes {
		C[i] = make([]float64, maxK+1)
		C[i][1] = nd.load
		for k := 2; k <= maxK; k++ {
			parts := partitionNode(nd, k, stats, cfg)
			if len(parts) < k {
				// Cannot split this far; same cost as best achievable.
				C[i][k] = C[i][k-1]
			} else {
				C[i][k] = totalLoad(parts)
			}
		}
	}
	const inf = math.MaxFloat64
	// L[i][j]: first i nodes into j partitions.
	L := make([][]float64, n+1)
	choice := make([][]int, n+1)
	for i := range L {
		L[i] = make([]float64, m+1)
		choice[i] = make([]int, m+1)
		for j := range L[i] {
			L[i][j] = inf
		}
	}
	L[0][0] = 0
	for i := 1; i <= n; i++ {
		for j := i; j <= m; j++ {
			for k := 1; k <= maxK && k <= j-i+1; k++ {
				if L[i-1][j-k] == inf {
					continue
				}
				v := L[i-1][j-k] + C[i-1][k]
				if v < L[i][j] {
					L[i][j] = v
					choice[i][j] = k
				}
			}
		}
	}
	counts := make([]int, n)
	j := m
	for i := n; i >= 1; i-- {
		k := choice[i][j]
		if k == 0 {
			k = 1
		}
		counts[i-1] = k
		j -= k
	}
	return counts
}

// mergeNodesIntoPartitions implements MergeNodesIntoPartitions: sort units
// by descending load; each goes to the partition minimising the resulting
// load increase unless that worsens the balance factor, in which case it
// goes to the currently lightest partition. Returns the worker per unit.
func mergeNodesIntoPartitions(units []*unit, m int) []int {
	idx := make([]int, len(units))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if units[idx[a]].load != units[idx[b]].load {
			return units[idx[a]].load > units[idx[b]].load
		}
		return idx[a] < idx[b]
	})
	owners := make([]int, len(units))
	loads := make([]float64, m)
	for _, i := range idx {
		u := units[i]
		// Partition with the minimum load increase. With additive unit
		// loads the increase is u.load for every partition, so the
		// minimum-increase choice and the paper's fallback ("the
		// partition that has currently the smallest load") coincide:
		// pick the lightest partition.
		best := 0
		for p := 1; p < m; p++ {
			if loads[p] < loads[best] {
				best = p
			}
		}
		loads[best] += u.load
		owners[i] = best
	}
	return owners
}

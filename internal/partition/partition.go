// Package partition defines the workload-distribution interfaces of
// PS2Stream and implements the two §VI-B finalists the hybrid strategy is
// compared against in §VI-C: metric text partitioning [28] and kd-tree
// space partitioning [21][26]. §VI-B's comparison with the other four
// baselines is recorded in docs/PAPER_RESULTS.md.
//
// A Builder analyses a workload sample and produces an Assignment; the
// dispatcher uses the Assignment to route objects and query
// insertions/deletions to workers. The hybrid strategy of §IV lives in
// package hybrid and implements the same interfaces.
package partition

import (
	"fmt"
	"hash/fnv"

	"ps2stream/internal/geo"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
	"ps2stream/internal/textutil"
)

// Sample is the workload snapshot a Builder analyses: a set of
// spatio-textual objects and STS queries (Definition 2's O and Q^i), the
// term statistics over the objects, and the bounding space S.
type Sample struct {
	Objects []*model.Object
	Queries []*model.Query
	Stats   *textutil.Stats
	Bounds  geo.Rect
	Costs   load.Costs
}

// NewSample bundles objects and queries, computing term statistics and
// bounds when not supplied. A zero Costs is replaced by load.DefaultCosts.
func NewSample(objects []*model.Object, queries []*model.Query, bounds geo.Rect, costs load.Costs) *Sample {
	stats := textutil.NewStats()
	for _, o := range objects {
		stats.Add(o.Terms...)
	}
	if costs == (load.Costs{}) {
		costs = load.DefaultCosts
	}
	return &Sample{Objects: objects, Queries: queries, Stats: stats, Bounds: bounds, Costs: costs}
}

// Assignment routes tuples to workers. Implementations must guarantee the
// routing invariant: for every object o and registered query q with
// q.Matches(o), RouteObject(o) and the RouteQuery(q, true) made at
// registration share at least one worker.
//
// Assignments are shared by all dispatcher goroutines; implementations
// must be safe for concurrent use.
type Assignment interface {
	// RouteObject returns the workers that must match o. An empty result
	// means the object cannot match any registered query and is dropped
	// ("The object can be discarded if it contains no terms in H2").
	// Callers must not modify the result; an implementation may share it
	// between calls.
	RouteObject(o *model.Object) []int
	// RouteQuery returns the workers that must store q. insert is true
	// for registrations (updating dynamic routing state such as H2) and
	// false for deletions (which must reach every worker the insertion
	// reached).
	RouteQuery(q *model.Query, insert bool) []int
	// NumWorkers returns the number of workers m.
	NumWorkers() int
	// Footprint estimates the dispatcher-side memory of the routing
	// structure in bytes (Figure 9).
	Footprint() int64
	// Name identifies the strategy.
	Name() string
}

// Builder constructs an Assignment from a workload sample.
type Builder interface {
	Name() string
	Build(s *Sample, m int) (Assignment, error)
}

// Builders returns the two baseline builders keyed by their evaluation
// names.
func Builders() map[string]Builder {
	return map[string]Builder{
		"metric": MetricBuilder{},
		"kdtree": KDTreeBuilder{},
	}
}

// hashTerm provides the deterministic fallback worker for terms absent
// from the build sample.
func hashTerm(term string, m int) int {
	h := fnv.New32a()
	h.Write([]byte(term))
	return int(h.Sum32() % uint32(m))
}

// validateWorkers guards Builder inputs.
func validateWorkers(m int) error {
	if m < 1 {
		return fmt.Errorf("partition: need at least 1 worker, got %d", m)
	}
	return nil
}

package migrate

import (
	"sort"

	"ps2stream/internal/load"
)

// KeyStat describes one registration key inside a worker's share of a
// cell: how many live queries sit under it and how often objects hit its
// inverted list in the current window.
type KeyStat struct {
	Key     string
	Queries int
	ObjHits int64
}

// CellShare is one worker's share of one gridt cell, the input granule of
// Phase I planning.
type CellShare struct {
	Cell    int
	Queries int
	ObjSeen int64
	// Shared counts the objects of ObjSeen that were routed to other
	// workers too: what the worker shares with the cell's other owners.
	Shared    int64
	SizeBytes int64
	Text      bool // cell is text-partitioned in the gridt index
	Keys      []KeyStat
}

// Load evaluates Definition 3 for the share.
func (c CellShare) Load() float64 { return load.Cell(float64(c.ObjSeen), float64(c.Queries)) }

// ActionKind enumerates Phase I operations.
type ActionKind int

const (
	// ActionSplitText converts a space cell into a text cell and
	// migrates the listed keys (and their queries) to the light worker.
	ActionSplitText ActionKind = iota
	// ActionMergeShares migrates the heavy worker's share of a text cell
	// to the light worker, merging it with the share already there.
	ActionMergeShares
)

// Action is one planned Phase I operation.
type Action struct {
	Kind ActionKind
	Cell int
	// Keys lists the registration keys to move (ActionSplitText).
	Keys []string
	// LoadMoved estimates the Definition 3 load transferred.
	LoadMoved float64
}

// PhaseIConfig tunes the planner.
type PhaseIConfig struct {
	// P is the number of most-loaded cells of w_o to inspect (the
	// paper's small parameter p).
	P int
}

// PlanPhaseI inspects the p most loaded cells of the overloaded worker w_o
// and returns the split/merge actions that reduce the total amount of
// workload (§V-A Phase I):
//
//   - a space cell is text-split when serving it from two workers costs
//     less than the current single-worker matching product;
//   - a text-cell share is merged into w_l's share of the same cell when
//     deduplicating the objects outweighs the larger matching product.
//
// wl maps cell id → w_l's existing share for merge checks.
func PlanPhaseI(wo []CellShare, wl map[int]CellShare, cfg PhaseIConfig) []Action {
	if cfg.P <= 0 {
		cfg.P = 8
	}
	top := append([]CellShare(nil), wo...)
	sort.Slice(top, func(i, j int) bool {
		li, lj := top[i].Load(), top[j].Load()
		if li != lj {
			return li > lj
		}
		return top[i].Cell < top[j].Cell
	})
	if len(top) > cfg.P {
		top = top[:cfg.P]
	}
	var actions []Action
	for _, cs := range top {
		if !cs.Text {
			if a, ok := planSplit(cs); ok {
				actions = append(actions, a)
			}
			continue
		}
		other, exists := wl[cs.Cell]
		if !exists || !other.Text {
			continue
		}
		if a, ok := planMerge(cs, other); ok {
			actions = append(actions, a)
		}
	}
	return actions
}

// planSplit evaluates text-splitting a space cell in two and migrating the
// smaller half.
func planSplit(cs CellShare) (Action, bool) {
	if len(cs.Keys) < 2 {
		return Action{}, false
	}
	// Greedy 2-way partition of keys by query count (balance the stored
	// queries, the quantity that must migrate).
	keys := append([]KeyStat(nil), cs.Keys...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Queries != keys[j].Queries {
			return keys[i].Queries > keys[j].Queries
		}
		return keys[i].Key < keys[j].Key
	})
	var g1, g2 []KeyStat
	var q1, q2 int
	for _, k := range keys {
		if q1 <= q2 {
			g1 = append(g1, k)
			q1 += k.Queries
		} else {
			g2 = append(g2, k)
			q2 += k.Queries
		}
	}
	if len(g1) == 0 || len(g2) == 0 {
		return Action{}, false
	}
	h1, h2 := hits(g1), hits(g2)
	costs := load.DefaultCosts
	// Before: all objects of the cell are matched against all queries on
	// one worker. After: each half handles only objects hitting its
	// keys. Object handling cost (c2) is paid per half.
	before := costs.C1*float64(cs.ObjSeen)*float64(q1+q2) + costs.C2*float64(cs.ObjSeen)
	after := costs.C1*(float64(h1)*float64(q1)+float64(h2)*float64(q2)) +
		costs.C2*float64(h1+h2)
	if after >= before {
		return Action{}, false
	}
	// Migrate the smaller half (by stored queries) per the paper.
	moved := g1
	movedQ := q1
	movedH := h1
	if q2 < q1 {
		moved, movedQ, movedH = g2, q2, h2
	}
	names := make([]string, len(moved))
	for i, k := range moved {
		names[i] = k.Key
	}
	sort.Strings(names)
	return Action{
		Kind:      ActionSplitText,
		Cell:      cs.Cell,
		Keys:      names,
		LoadMoved: load.Cell(float64(movedH), float64(movedQ)),
	}, true
}

func hits(ks []KeyStat) int64 {
	var h int64
	for _, k := range ks {
		h += k.ObjHits
	}
	return h
}

// planMerge evaluates merging w_o's text share into w_l's share of the
// same cell.
func planMerge(a, b CellShare) (Action, bool) {
	costs := load.DefaultCosts
	// Before: each worker handles its own object subset and query share.
	before := costs.C1*(float64(a.ObjSeen)*float64(a.Queries)+float64(b.ObjSeen)*float64(b.Queries)) +
		costs.C2*float64(a.ObjSeen+b.ObjSeen)
	// After: one worker holds both query shares and receives each cell
	// object once. The objects both workers saw are counted in both
	// shares; each saw at most min(a.Shared, b.Shared) of them. That is
	// exact for a cell with two owners, and a lower bound on the union
	// when it has more. Without the objects counted twice, merging could
	// never win: after − before = c1·(a.o·b.q + b.o·a.q) ≥ 0.
	merged := a.ObjSeen + b.ObjSeen - min(a.Shared, b.Shared)
	after := costs.C1*float64(merged)*float64(a.Queries+b.Queries) + costs.C2*float64(merged)
	if after >= before {
		return Action{}, false
	}
	return Action{
		Kind:      ActionMergeShares,
		Cell:      a.Cell,
		LoadMoved: a.Load(),
	}, true
}

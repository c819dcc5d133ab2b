// Package worker implements the worker role of PS2Stream (§III-B,
// Figure 1) once: an Engine owns one worker slot's query index and
// sliding-window top-k state, matches the operation stream against them,
// and hands gridt cells to a peer in the §V migrations. An in-process
// worker bolt (internal/core) and a psnode worker (internal/node) both
// run this engine; they differ only in how operations reach it and where
// its matches and deltas go.
//
// The engine speaks the wire package's request and reply types directly:
// Serve is the one entry point of a control round, the same call whether
// the request arrives as a decoded frame or as a typed value from the
// coordinator's own process.
package worker

import (
	"fmt"
	"sync"
	"time"

	"ps2stream/internal/gi2"
	"ps2stream/internal/model"
	"ps2stream/internal/textutil"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
)

// Config is what an Engine is built over.
type Config struct {
	// Task is the worker slot the engine serves (stamped on its matches).
	Task int
	// Epoch tags every delta batch and control reply the engine produces.
	// A psnode passes the coordinator session epoch its state was built
	// under, so the coordinator can fence out a superseded session's
	// deltas; an in-process engine never restarts and leaves it zero.
	Epoch uint64
	// Index is the slot's query index. The window store uses its grid, so
	// window state migrates in the same cell units as the queries.
	Index *gi2.Index
}

// Engine is one worker slot's state and the operations on it. All
// methods are safe for concurrent use; each runs under the engine's lock,
// so a control round observes whole batches only.
//
// Clock rule: the engine never reads a clock. Its "now" is the running
// maximum of the T0 stamps of the operations it has processed and of the
// AdvanceWindow times it has served — the coordinator's clock as far as
// the engine has seen it, which is the only reading a remote engine can
// have and therefore the one every engine uses.
type Engine struct {
	mu    sync.Mutex
	task  int
	epoch uint64
	gi    *gi2.Index
	win   *window.Store
	now   time.Time
	// Cumulative processed-op counts by kind and emitted matches; they
	// describe the slot's lifetime and survive Reset.
	objects, inserts, deletes, emitted int64

	// Cursor of the Process call in flight, read by match.
	env   *wire.OpEnv
	entry window.Entry
	out   []wire.MatchEnv
	dout  []window.Delta
}

// New returns an engine over cfg.
func New(cfg Config) *Engine {
	e := &Engine{}
	e.Reset(cfg)
	return e
}

// Reset discards the index and window state and starts over from cfg
// under its epoch. The clock reading and the op counters carry on. A
// psnode resets when a recovery session supersedes the state's epoch:
// the coordinator then replays the authoritative op history, and state
// from the superseded session must not survive into it.
func (e *Engine) Reset(cfg Config) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.task, e.epoch, e.gi = cfg.Task, cfg.Epoch, cfg.Index
	e.win = window.NewStore(e.gi.Grid())
}

// Epoch returns the epoch of the current state.
func (e *Engine) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// observe folds one coordinator clock reading into the engine's now.
func (e *Engine) observe(t time.Time) {
	if t.After(e.now) {
		e.now = t
	}
}

// Process applies one operation batch to the index and window store,
// appending the boolean matches to out and the top-k membership deltas
// to dout, and returns both with the epoch they were produced under.
// Boolean subscriptions emit matches; top-k subscriptions route matches
// into the window store, whose local membership changes are the deltas.
// An object is matched on its envelope's TermIDs when the dispatcher
// resolved them (in process, in the index's shared dictionary), else on
// its terms. An object whose terms the dispatcher did not make (nil
// Terms, see model.Object) has them made from its text for a top-k hit's
// window entry only. An object that is not Solo was routed to other
// slots too, and its cell counts it as shared: Phase I's merge bound.
func (e *Engine) Process(ops []wire.OpEnv, out []wire.MatchEnv, dout []window.Delta) ([]wire.MatchEnv, []window.Delta, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.out, e.dout = out, dout
	for i := range ops {
		env := &ops[i]
		e.observe(env.T0)
		switch env.Op.Kind {
		case model.OpInsert:
			e.inserts++
			q := env.Op.Query
			if q == nil {
				continue
			}
			e.gi.Insert(q)
			e.win.AddSub(q)
		case model.OpDelete:
			e.deletes++
			if env.Op.Query != nil {
				e.gi.Delete(env.Op.Query.ID)
				e.dout = append(e.dout, e.win.RemoveSub(env.Op.Query.ID)...)
			}
		case model.OpObject:
			e.objects++
			obj := env.Op.Obj
			if obj == nil {
				continue
			}
			e.env = env
			e.entry = window.Entry{MsgID: obj.ID, Terms: obj.Terms, Loc: obj.Loc, At: env.T0}
			var hits []uint32
			if env.TermIDs != nil {
				hits = e.gi.MatchSlots(obj.Loc, env.TermIDs, !env.Solo)
			} else {
				hits = e.gi.MatchObject(obj, !env.Solo)
			}
			for _, s := range hits {
				e.match(s)
			}
		}
	}
	out, dout = e.out, e.dout
	e.env, e.out, e.dout = nil, nil, nil
	e.emitted += int64(len(out))
	return out, dout, e.epoch
}

// match takes the index slot of one query matching the object under the
// Process cursor.
func (e *Engine) match(s uint32) {
	id, sub, topk := e.gi.Slot(s)
	if topk != nil && topk.IsTopK() {
		if e.entry.Terms == nil {
			// The window ranks by the terms: make them from the text,
			// for the entry only. The object is shared with other
			// slots and is never written here.
			e.entry.Terms = textutil.Tokenize(e.env.Op.Obj.Text)
		}
		e.dout = e.win.Insert(e.dout, id, e.entry, e.now, true)
		return
	}
	e.out = append(e.out, wire.MatchEnv{
		M: model.Match{
			QueryID:    id,
			Subscriber: sub,
			ObjectID:   e.env.Op.Obj.ID,
			Worker:     e.task,
		},
		T0:   e.env.T0,
		Solo: e.env.Solo,
	})
}

// Serve runs one control request and returns its reply: a StatsReply,
// CellStatsReply, CellShare, InstallAck or AdvanceAck, each under the
// request's Seq, or nil for a ResetWindow, which is not answered. An
// AdvanceWindow runs one expiry sweep at the coordinator's clock: expired
// entries leave each top-k subscription's band, held entries move up in
// their place, and the ack carries those deltas. A ResetWindow starts a
// fresh Definition-3 load window: the per-cell object, shared-object and
// term-hit counters CellStats reports.
func (e *Engine) Serve(req wire.Frame) (wire.Frame, error) {
	switch r := req.(type) {
	case wire.StatsReq:
		sr := e.Stats()
		sr.Seq = r.Seq
		return sr, nil
	case wire.CellStatsReq:
		return wire.CellStatsReply{Seq: r.Seq, Cells: e.CellStats()}, nil
	case wire.ExtractCells:
		return e.ExtractCells(r)
	case wire.InstallCells:
		return e.InstallCells(r)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch r := req.(type) {
	case wire.AdvanceWindow:
		e.observe(r.Now)
		return wire.AdvanceAck{Seq: r.Seq, Epoch: e.epoch, Deltas: e.win.Advance(e.now)}, nil
	case wire.ResetWindow:
		e.gi.ResetWindow()
		return nil, nil
	}
	return nil, fmt.Errorf("worker: a %T is not a control request", req)
}

// Stats reports the live query count, the cumulative processed-op counts
// by kind (the load detector's input) and the emitted matches.
func (e *Engine) Stats() wire.StatsReply {
	e.mu.Lock()
	defer e.mu.Unlock()
	return wire.StatsReply{
		Delivered: e.emitted,
		Queries:   int64(e.gi.LiveQueryCount()),
		Objects:   e.objects, Inserts: e.inserts, Deletes: e.deletes,
	}
}

// CellStats assembles the planner view of every non-empty cell: the
// Phase I/II input.
func (e *Engine) CellStats() []wire.CellStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	var cells []wire.CellStat
	for _, cs := range e.gi.CellStats() {
		stat := wire.CellStat{
			Cell:      cs.CellID,
			Entries:   cs.Entries,
			ObjSeen:   cs.ObjSeen,
			Shared:    cs.Shared,
			SizeBytes: cs.SizeBytes,
		}
		for _, ts := range e.gi.CellTermStats(cs.CellID) {
			stat.Terms = append(stat.Terms, wire.CellTermStat{
				Term: ts.Term, Queries: ts.Queries, ObjHits: ts.ObjHits,
			})
		}
		cells = append(cells, stat)
	}
	return cells
}

// checkCell refuses a cell id outside the engine's grid before a control
// round touches any state, so a bad frame ends the session instead of the
// process. whole admits wire.WholeQueries.
func (e *Engine) checkCell(cell int, whole bool) error {
	if n := e.gi.Grid().NumCells(); (cell < 0 || cell >= n) && !(whole && cell == wire.WholeQueries) {
		return fmt.Errorf("worker: cell %d is outside the %d-cell grid", cell, n)
	}
	return nil
}

// ExtractCells serves one ExtractCells request. With Remove false the
// shares are copies and nothing changes here; a wire.WholeQueries spec
// copies every live query of the slot once. With Remove true the shares
// leave the index, and each extracted top-k subscription gives up its
// entries located in the cell, or its whole band once its last live cell
// has left; the resulting membership deltas ride back in the share. With
// Subs, each payload carries its top-k subscriptions' entries — located
// in the cell for a cell spec — read before any removal. A cell id
// outside the grid fails the request before anything is read or removed.
func (e *Engine) ExtractCells(ex wire.ExtractCells) (wire.CellShare, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, spec := range ex.Cells {
		if err := e.checkCell(spec.Cell, !ex.Remove && spec.Keys == nil); err != nil {
			return wire.CellShare{}, err
		}
	}
	share := wire.CellShare{Seq: ex.Seq, Epoch: e.epoch}
	for _, spec := range ex.Cells {
		p := wire.CellPayload{Cell: spec.Cell}
		switch {
		case spec.Cell == wire.WholeQueries:
			e.gi.Each(func(q *model.Query) { p.Queries = append(p.Queries, q) })
		case !ex.Remove && spec.Keys == nil:
			p.Queries = e.gi.QueriesInCell(spec.Cell)
		case !ex.Remove:
			p.Queries = e.gi.QueriesInCellKeys(spec.Cell, spec.Keys)
		case spec.Keys == nil:
			p.Queries = e.gi.ExtractCell(spec.Cell)
		default:
			p.Queries = e.gi.ExtractCellKeys(spec.Cell, spec.Keys)
		}
		for _, q := range p.Queries {
			if q == nil || !q.IsTopK() {
				continue
			}
			if ex.Subs {
				if es := e.win.SubEntries(q.ID, p.Cell); len(es) > 0 {
					p.Subs = append(p.Subs, wire.SubEntries{ID: q.ID, Entries: es})
				}
			}
			switch {
			case ex.Remove && e.gi.HasLive(q.ID):
				share.Deltas = append(share.Deltas, e.win.DropCell(q.ID, p.Cell)...)
			case ex.Remove:
				share.Deltas = append(share.Deltas, e.win.RemoveSub(q.ID)...)
			}
		}
		share.Cells = append(share.Cells, p)
	}
	return share, nil
}

// InstallCells indexes the received cell shares and applies the deletes
// (global repartition's departures). A wire.WholeQueries payload is a
// whole-query install (global repartition): its queries are indexed by
// their own placement rather than into one named cell. Top-k
// subscriptions register in the window store before they adopt the
// carried entries, and the membership deltas everything produced return
// in the ack. A cell id outside the grid fails the request before
// anything is installed.
func (e *Engine) InstallCells(ic wire.InstallCells) (wire.InstallAck, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range ic.Cells {
		if err := e.checkCell(ic.Cells[i].Cell, true); err != nil {
			return wire.InstallAck{}, err
		}
	}
	ack := wire.InstallAck{Seq: ic.Seq, Epoch: e.epoch}
	for i := range ic.Cells {
		p := &ic.Cells[i]
		for _, q := range p.Queries {
			if q == nil {
				continue
			}
			if p.Cell == wire.WholeQueries {
				e.gi.Insert(q)
			} else {
				e.gi.InsertAt(p.Cell, q)
			}
			e.win.AddSub(q)
		}
		for _, se := range p.Subs {
			ack.Deltas = e.win.AdoptEntries(ack.Deltas, se.ID, se.Entries, e.now)
		}
	}
	for _, id := range ic.Deletes {
		e.gi.Delete(id)
		ack.Deltas = append(ack.Deltas, e.win.RemoveSub(id)...)
	}
	return ack, nil
}

// Footprint estimates the resident bytes of the index and window state.
func (e *Engine) Footprint() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gi.Footprint() + e.win.Footprint()
}

// WindowStats reports the window state's estimated bytes and appends each
// top-k subscription's band length to bands (benchmarks).
func (e *Engine) WindowStats(bands []int) (int64, []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.win.Footprint(), e.win.Bands(bands)
}

// TopKSet returns the message ids the engine's window store currently
// holds for the subscription, ascending (tests).
func (e *Engine) TopKSet(id uint64) []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.win.TopKSet(id)
}

// HasSub reports whether the subscription holds window state here
// (tests).
func (e *Engine) HasSub(id uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.win.HasSub(id)
}

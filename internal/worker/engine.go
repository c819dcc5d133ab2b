// Package worker implements the worker role of PS2Stream (§III-B,
// Figure 1) once: an Engine owns one worker slot's query index and
// sliding-window top-k state, matches the operation stream against them,
// and hands gridt cells to a peer in the §V migrations. An in-process
// worker bolt (internal/core) and a psnode worker (internal/node) both
// run this engine; they differ only in how operations reach it and where
// its matches and deltas go.
//
// The engine speaks the wire package's request and reply types directly,
// so a control round is the same call whether it arrives as a decoded
// frame or as a function call from the coordinator's own process.
package worker

import (
	"sync"
	"time"

	"ps2stream/internal/gi2"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
	"ps2stream/internal/qindex"
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
	// Index is the slot's query index. Cell migration (CellStats,
	// cell-addressed ExtractCells/InstallCells) needs GI2.
	Index qindex.Index
	// Grid is the window store's cell geometry for an index that has none
	// of its own; a GI2 index's grid is used instead, so window state
	// migrates in the same cell units as the queries.
	Grid *grid.Grid
	// Scorer ranks window entries (nil: window.DefaultScorer) and RingCap
	// bounds each cell's window ring (<= 0: window.DefaultRingCap).
	Scorer  window.Scorer
	RingCap int
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
	ix    qindex.Index
	// gi is ix when the index is GI2, else nil.
	gi  *gi2.Index
	win *window.Store
	now time.Time
	// Cumulative processed-op counts by kind; they describe the slot's
	// lifetime and survive Reset.
	objects, inserts, deletes int64

	// Cursor of the Process call in flight, read by onMatch. onMatch is
	// bound once so that matching an object allocates no closure.
	env     *wire.OpEnv
	entry   window.Entry
	out     []wire.MatchEnv
	dout    []window.Delta
	onMatch func(*model.Query)
}

// New returns an engine over cfg.
func New(cfg Config) *Engine {
	e := &Engine{}
	e.onMatch = e.match
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
	e.task, e.epoch, e.ix = cfg.Task, cfg.Epoch, cfg.Index
	e.gi, _ = cfg.Index.(*gi2.Index)
	g := cfg.Grid
	if e.gi != nil {
		g = e.gi.Grid()
	}
	e.win = window.NewStore(g, cfg.Scorer, cfg.RingCap)
}

// Epoch returns the epoch of the current state.
func (e *Engine) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// HasCells reports whether the index is GI2, the one index whose queries
// migrate in units of gridt cells.
func (e *Engine) HasCells() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gi != nil
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
			e.ix.Insert(q)
			if q.IsTopK() {
				e.dout = append(e.dout, e.win.AddSub(q, e.now)...)
			}
		case model.OpDelete:
			e.deletes++
			if env.Op.Query != nil {
				e.ix.Delete(env.Op.Query.ID)
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
			e.ix.Match(obj, e.onMatch)
			if e.win.SubCount() > 0 {
				e.win.Observe(e.entry)
			}
		}
	}
	out, dout = e.out, e.dout
	e.env, e.out, e.dout = nil, nil, nil
	return out, dout, e.epoch
}

// match receives one query matching the object under the Process cursor.
func (e *Engine) match(q *model.Query) {
	if q.IsTopK() {
		e.dout = e.win.OfferInto(e.dout, q, e.entry, e.now)
		return
	}
	if e.env.Refill {
		// Window-rebuild replay: its boolean matches were delivered
		// before the coordinator's checkpoint covered the op, and queries
		// inserted since must not match an object published before them.
		return
	}
	e.out = append(e.out, wire.MatchEnv{
		M: model.Match{
			QueryID:    q.ID,
			Subscriber: q.Subscriber,
			ObjectID:   e.env.Op.Obj.ID,
			Worker:     e.task,
		},
		T0:   e.env.T0,
		Solo: e.env.Solo,
	})
}

// Stats reports the live query count and the cumulative processed-op
// counts by kind (the load detector's input).
func (e *Engine) Stats() wire.StatsReply {
	e.mu.Lock()
	defer e.mu.Unlock()
	queries := e.ix.QueryCount()
	if e.gi != nil {
		queries = e.gi.LiveQueryCount() // lazily-tombstoned deletions are not live
	}
	return wire.StatsReply{
		Queries: int64(queries),
		Objects: e.objects, Inserts: e.inserts, Deletes: e.deletes,
	}
}

// CellStats assembles the planner view of every non-empty cell: the
// Phase I/II input (nil for an index without cells).
func (e *Engine) CellStats() []wire.CellStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gi == nil {
		return nil
	}
	var cells []wire.CellStat
	for _, cs := range e.gi.CellStats() {
		stat := wire.CellStat{
			Cell:      cs.CellID,
			Entries:   cs.Entries,
			ObjSeen:   cs.ObjSeen,
			SizeBytes: cs.SizeBytes,
			Load:      cs.Load,
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

// ExtractCells serves one ExtractCells request. With Remove false the
// shares are copies (queries and ring snapshot, nothing changes here);
// with Remove true whole-cell shares leave the index and release their
// ring, while key splits keep the cell ring for the remaining keys. A
// removing extraction that strips a top-k subscription's last live cell
// also releases its heap, and the resulting membership deltas ride back
// in the share.
//
// An index without cells has one share — everything it holds — and
// answers a copying extraction with it as a single whole-query payload
// (Cell < 0, the form InstallCells indexes by the query's own placement).
func (e *Engine) ExtractCells(ex wire.ExtractCells) wire.CellShare {
	e.mu.Lock()
	defer e.mu.Unlock()
	share := wire.CellShare{Seq: ex.Seq, Epoch: e.epoch}
	if e.gi == nil {
		if !ex.Remove {
			p := wire.CellPayload{Cell: -1}
			e.ix.Each(func(q *model.Query) { p.Queries = append(p.Queries, q) })
			e.addSubs(&p, ex.Subs)
			share.Cells = append(share.Cells, p)
		}
		return share
	}
	for _, spec := range ex.Cells {
		p := wire.CellPayload{Cell: spec.Cell}
		switch {
		case !ex.Remove && spec.Keys == nil:
			p.Queries = e.gi.QueriesInCell(spec.Cell)
			p.Ring = e.win.SnapshotCell(spec.Cell, e.now)
		case !ex.Remove:
			p.Queries = e.gi.QueriesInCellKeys(spec.Cell, spec.Keys)
			p.Ring = e.win.SnapshotCell(spec.Cell, e.now)
		case spec.Keys == nil:
			p.Queries = e.gi.ExtractCell(spec.Cell)
			// Subscriptions whose only live presence was this cell drop
			// their heaps before the ring is released, so DropCell does
			// not waste a ring scan refilling heaps about to disappear.
			share.Deltas = e.releaseDeparted(share.Deltas, p.Queries)
			var dropDs []window.Delta
			p.Ring, dropDs = e.win.DropCell(spec.Cell, e.now)
			share.Deltas = append(share.Deltas, dropDs...)
		default:
			p.Queries = e.gi.ExtractCellKeys(spec.Cell, spec.Keys)
			share.Deltas = e.releaseDeparted(share.Deltas, p.Queries)
			// The cell stays for the remaining keys; its ring travels as a
			// copy so the new share holds the cell's full history too.
			p.Ring = e.win.SnapshotCell(spec.Cell, e.now)
		}
		e.addSubs(&p, ex.Subs)
		share.Cells = append(share.Cells, p)
	}
	return share
}

// releaseDeparted drops the window heaps of extracted top-k
// subscriptions that no longer live anywhere in the index.
func (e *Engine) releaseDeparted(ds []window.Delta, extracted []*model.Query) []window.Delta {
	for _, q := range extracted {
		if q != nil && q.IsTopK() && !e.gi.HasLive(q.ID) {
			ds = append(ds, e.win.RemoveSub(q.ID)...)
		}
	}
	return ds
}

// addSubs attaches each top-k subscription's held window entries to the
// payload when the request asked for them.
func (e *Engine) addSubs(p *wire.CellPayload, want bool) {
	if !want {
		return
	}
	for _, q := range p.Queries {
		if q == nil || !q.IsTopK() {
			continue
		}
		if es := e.win.SubEntries(q.ID); len(es) > 0 {
			p.Subs = append(p.Subs, wire.SubEntries{ID: q.ID, Entries: es})
		}
	}
}

// InstallCells indexes the received cell shares and applies the
// reconciliation deletes (queries removed at the migration source
// between copy and routing flip). A payload with a negative Cell is a
// whole-query install (global repartition): the query is indexed by its
// own placement rather than into one named cell. Top-k subscriptions
// register in the window store, adopt the carried entries, and the
// membership deltas everything produced return in the ack.
func (e *Engine) InstallCells(ic wire.InstallCells) wire.InstallAck {
	e.mu.Lock()
	defer e.mu.Unlock()
	ack := wire.InstallAck{Seq: ic.Seq, Epoch: e.epoch}
	for i := range ic.Cells {
		p := &ic.Cells[i]
		for _, q := range p.Queries {
			if q == nil {
				continue
			}
			if p.Cell < 0 || e.gi == nil {
				e.ix.Insert(q)
			} else {
				e.gi.InsertAt(p.Cell, q)
			}
			if q.IsTopK() {
				ack.Deltas = append(ack.Deltas, e.win.AddSub(q, e.now)...)
			}
		}
		if len(p.Ring) > 0 {
			ack.Deltas = append(ack.Deltas, e.win.AdoptCell(p.Cell, p.Ring, e.now)...)
		}
		for _, se := range p.Subs {
			ack.Deltas = append(ack.Deltas, e.win.AdoptEntries(se.ID, se.Entries, e.now)...)
		}
	}
	for _, id := range ic.Deletes {
		e.ix.Delete(id)
		ack.Deltas = append(ack.Deltas, e.win.RemoveSub(id)...)
	}
	return ack
}

// AdvanceWindow runs one expiry sweep at the coordinator's clock and
// returns the resulting membership deltas. It runs even with no live
// subscriptions: the retention horizon is then zero, so rings left
// behind by the last unsubscribe are swept instead of pinned forever.
func (e *Engine) AdvanceWindow(a wire.AdvanceWindow) wire.AdvanceAck {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observe(a.Now)
	return wire.AdvanceAck{Seq: a.Seq, Epoch: e.epoch, Deltas: e.win.Advance(e.now)}
}

// ResetWindow starts a fresh Definition-3 load window: the per-cell
// object and term-hit counters CellStats reports.
func (e *Engine) ResetWindow() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gi != nil {
		e.gi.ResetWindow()
	}
}

// Each invokes fn once per live query, in unspecified order.
func (e *Engine) Each(fn func(q *model.Query)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ix.Each(fn)
}

// QueryCount reports the index's stored distinct queries.
func (e *Engine) QueryCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ix.QueryCount()
}

// Footprint estimates the resident bytes of the index and window state.
func (e *Engine) Footprint() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ix.Footprint() + e.win.Footprint()
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

package core

import (
	"sync"
	"time"

	"ps2stream/internal/window"
	"ps2stream/internal/wire"
	"ps2stream/internal/worker"
)

// workerEndpoint is the one way the coordinator reaches inside a worker
// slot: load detection, cell migration, global repartition, window expiry
// and scrapes all go through it, and never ask where the slot runs. It
// has exactly two implementations — localWorker calls a worker.Engine in
// this process, workerHop runs the same calls as control rounds against
// the slot's psnode session — and every slot has one of them and nothing
// else.
//
// Delta order: the top-k deltas of one slot reach the board in the order
// that slot's engine produced them. An endpoint applies the deltas of an
// InstallCells or AdvanceWindow round to the board itself before it
// returns; localWorker holds its slot lock across the engine call and the
// board apply (its op batches take the same lock), so nothing the engine
// does later can overtake them. The one exception is deliberate: a
// removing ExtractCells returns its retraction deltas in the share, and
// the caller applies them after the destination's adoptions, so a
// hand-off that preserves membership shows subscribers no change.
type workerEndpoint interface {
	// Stats runs one stats round: the slot's live query count and its
	// cumulative processed-op counts by kind, covering every op batch
	// handed to the slot before the call.
	Stats() (wire.StatsReply, error)
	// LastStats is what the latest successful Stats round reported, at
	// no cost — what a scrape reads.
	LastStats() wire.StatsReply
	// CellStats is the planner view of every non-empty cell.
	CellStats() ([]wire.CellStat, error)
	// ExtractCells copies the named cell shares (remove false) or takes
	// them out of the slot's index (remove true); subs adds each top-k
	// subscription's held window entries.
	ExtractCells(cells []wire.CellSpec, remove, subs bool) (wire.CellShare, error)
	// InstallCells indexes the shares and deletes the ids, and returns
	// the length of the request in the wire.AppendInstallCells layout —
	// the migration's measured transfer bytes, under one rule for every
	// placement. Op batches handed to the slot afterwards are matched
	// against the shares.
	InstallCells(cells []wire.CellPayload, deletes []uint64) (nbytes int64, err error)
	// AdvanceWindow expires the slot's sliding windows up to now, after
	// every op batch handed to it before the call.
	AdvanceWindow(now time.Time) error
	// ResetWindow starts a fresh per-cell load window.
	ResetWindow() error
	// SendFence announces a routing epoch. Informational, but ordered
	// before any later round on the slot.
	SendFence(epoch uint64) error
}

// localWorker is the endpoint of an in-process slot: every call runs the
// slot's engine synchronously on the caller's goroutine.
type localWorker struct {
	// mu is the slot lock of the delta-order invariant (see
	// workerEndpoint); the engine has its own lock for its own state.
	mu    sync.Mutex
	eng   *worker.Engine
	board *topkBoard
	// wireRate is Adjust.WireBytesPerSec: a simulated transfer occupies
	// the destination for bytes/rate, as receiving and indexing a share
	// occupies a worker on the paper's cluster (Figures 12(c)/15).
	wireRate float64
	// deltas is the op path's delta scratch (guarded by mu).
	deltas []window.Delta
}

// process runs one op batch through the engine, appending its boolean
// matches to out; its top-k deltas go to the board before the slot lock
// is released.
func (l *localWorker) process(ops []wire.OpEnv, out []wire.MatchEnv) []wire.MatchEnv {
	l.mu.Lock()
	out, l.deltas, _ = l.eng.Process(ops, out, l.deltas[:0])
	l.board.Apply(l.deltas)
	l.mu.Unlock()
	return out
}

func (l *localWorker) Stats() (wire.StatsReply, error) { return l.eng.Stats(), nil }
func (l *localWorker) LastStats() wire.StatsReply      { return l.eng.Stats() }

func (l *localWorker) CellStats() ([]wire.CellStat, error) { return l.eng.CellStats(), nil }

func (l *localWorker) ExtractCells(cells []wire.CellSpec, remove, subs bool) (wire.CellShare, error) {
	return l.eng.ExtractCells(wire.ExtractCells{Cells: cells, Remove: remove, Subs: subs}), nil
}

func (l *localWorker) InstallCells(cells []wire.CellPayload, deletes []uint64) (int64, error) {
	req := wire.InstallCells{Cells: cells, Deletes: deletes}
	// Measured in the layout a remote slot would receive it in; the
	// engine indexes the request itself.
	buf := wire.GetBuf()
	buf.B = wire.AppendInstallCells(buf.B, req)
	n := int64(len(buf.B))
	wire.PutBuf(buf)
	l.mu.Lock()
	if l.wireRate > 0 {
		time.Sleep(time.Duration(float64(n) / l.wireRate * float64(time.Second)))
	}
	l.board.Apply(l.eng.InstallCells(req).Deltas)
	l.mu.Unlock()
	return n, nil
}

func (l *localWorker) AdvanceWindow(now time.Time) error {
	l.mu.Lock()
	l.board.Apply(l.eng.AdvanceWindow(wire.AdvanceWindow{Now: now}).Deltas)
	l.mu.Unlock()
	return nil
}

func (l *localWorker) ResetWindow() error {
	l.eng.ResetWindow()
	return nil
}

func (l *localWorker) SendFence(uint64) error { return nil }

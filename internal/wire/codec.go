package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/window"
)

// Magic identifies a PS2Stream wire peer in the handshake.
const Magic = "PS2WIRE"

// Version is the current wire protocol version. Both ends of a hop are
// built from one tree, so there is no negotiation: a Hello or Welcome
// opens with Magic and Version, a peer with any other version is refused,
// and a field is added to a frame by bumping Version — never by decoding
// it optionally (docs/WIRE.md, "Versioning"). Version 1 was the gob
// encoding; version 2 opened a worker hop as a control connection plus
// attached data connections; version 3 carried counts in DrainAck;
// version 4 carried a window ring in each CellPayload; version 5 had a
// refill bit in each op's presence byte; version 6 carried the sample's
// term counts in the Hello; version 7 carried a merger's duplicate count
// in StatsReply; version 8 sent a CellShare's cells inside it, unpaged;
// version 9 had a Fence frame, a load in each CellStat and no Solo bit
// in an op's presence byte.
const Version = 10

// Roles named in the handshake.
const (
	RoleCoordinator = "coordinator"
	RoleWorker      = "worker"
)

// Hello is the coordinator's opening message to a peer. Beyond
// identifying the protocol it distributes everything a worker node needs
// to agree with the coordinator's routing: the monitored bounds and the
// grid granularity, so gridt/GI2 cell ids computed on either side of the
// wire coincide. Registration keys ride each query, first in each conjunction.
type Hello struct {
	// Role the *sender* is playing (normally RoleCoordinator).
	Role string
	// Task is the topology task index the peer is asked to run.
	Task int
	// Workers is the coordinator's total worker-task count.
	Workers int
	// Bounds and Granularity define the shared grid geometry.
	Bounds      geo.Rect
	Granularity int
	// BatchSize is the coordinator's transfer batch size, advisory.
	BatchSize int
	// Terms is ignored and not encoded: a query arrives with its
	// registration keys first.
	//
	// Deprecated: it survives only because benchmark/probes.go sets it;
	// the probe rewrite of ROADMAP.md item 1 deletes it.
	Terms map[string]int
	// HeartbeatMillis asks the peer to send a TypePing every this many
	// milliseconds; 0 disables heartbeats.
	HeartbeatMillis int
	// Epoch is the coordinator's fencing epoch for this worker slot. A
	// node refuses a Hello whose epoch is below one it has already
	// accepted, so a stale coordinator session (severed but not yet dead)
	// cannot reclaim a slot a recovery session has taken over.
	Epoch uint64
	// Streams is ignored and not encoded: a hop is one connection.
	//
	// Deprecated: it survives only because benchmark/probes.go sets it;
	// the probe rewrite of ROADMAP.md item 1 deletes it.
	Streams int
}

// Welcome is the peer's handshake reply.
type Welcome struct {
	// Role the replying peer is playing (RoleWorker).
	Role string
	// Task echoes the task index the peer accepted.
	Task int
}

// OpEnv is one stream operation in flight with its submit timestamp
// (the coordinator's clock; it returns to the coordinator inside match
// envelopes, so latency is measured in a single clock domain). Envelopes
// move between stages as []OpEnv batches, in-process and on the wire
// alike.
type OpEnv struct {
	Op model.Op
	T0 time.Time
	// Solo marks an object the dispatcher routed to exactly one worker:
	// no second engine sees it, so its matches cannot be reported twice.
	// An engine counts an object that is not Solo as shared in its cell
	// (Phase I's merge bound), so Solo is encoded: a bit of the op's
	// presence byte.
	Solo bool
	// TermIDs are an object's term ids in the coordinator's term
	// dictionary, resolved once by the dispatcher, which routes by them;
	// terms the dictionary does not hold are left out. An in-process
	// engine, whose index shares that dictionary, matches on them. nil
	// means unresolved: the engine looks the object's terms up itself.
	// Coordinator-local: not encoded, and not op-logged.
	TermIDs []uint32
}

// OpBatch is one transfer batch of operations — one frame per batch, so
// wire framing reuses the engine's batch boundaries.
type OpBatch struct {
	Ops []OpEnv
}

// MatchEnv is one match result in flight with the originating
// operation's submit timestamp. Matches move as []MatchEnv batches: a
// worker's output, or a frame from a remote worker.
type MatchEnv struct {
	M  model.Match
	T0 time.Time
	// Solo is the producing object's OpEnv.Solo, copied by an in-process
	// engine: such a match is delivered without consulting a dedup
	// window. Coordinator-local: it is not encoded, so a match that
	// crossed the wire has it false and is always deduplicated.
	Solo bool
}

// MatchBatch is one transfer batch of matches. From a worker hop
// (WorkerClient.RecvMatches) it is one item of the up stream, in arrival
// order: matches, or exactly one of the fields below, none of which a
// match frame encodes.
type MatchBatch struct {
	Matches []MatchEnv
	// Drained marks the DrainAck answering a WorkerClient.SendDrain.
	Drained bool
	// Epoch and Deltas are one WindowDeltaBatch.
	Epoch  uint64
	Deltas []window.Delta
	// Reply answers a SendControl request (ExtractCells: Pages, then a CellShare).
	Reply Frame
}

// Drain asks a worker to acknowledge once everything sent before this
// frame has been fully processed. A hop is one connection, so FIFO is
// the barrier: the ack follows every match and delta batch the earlier
// ops produced. Seq 0 is a marker's Drain (WorkerClient.SendDrain); a
// round trip numbers its request from 1.
type Drain struct {
	Seq uint64
}

// DrainAck answers a Drain.
type DrainAck struct {
	Seq uint64
	// Emitted is the worker's emitted-match count for the session. Only
	// benchmark/probes.go reads it.
	Emitted int64
}

// StatsReq asks a peer for its counters. Like every control frame it is
// answered in arrival order, after every op batch sent before it.
type StatsReq struct {
	Seq uint64
}

// StatsReply answers a StatsReq.
type StatsReply struct {
	Seq uint64
	// Delivered counts the matches the worker emitted.
	Delivered int64
	// Queries is the worker's live query count.
	Queries int64
	// Objects/Inserts/Deletes are the worker's cumulative processed
	// operation counts by kind. The coordinator's adjustment controller
	// differences them per interval, so the imbalance detector sees the
	// node's actual processing progress instead of the coordinator's
	// hand-off rate.
	Objects int64
	Inserts int64
	Deletes int64
}

// CellTermStat is one registration key's statistics within a cell
// (gi2.TermStat across the wire): the Phase I split planner's input.
type CellTermStat struct {
	Term    string
	Queries int
	ObjHits int64
}

// CellStat is one grid cell's planner view on a worker node: n_q
// (Entries), the per-window object count n_o (ObjSeen), of which Shared
// were routed to other slots too, and the serialised size S_g
// (SizeBytes) that prices a migration. The Definition-3 window load
// L_g = n_o·n_q is load.Cell of the first two.
type CellStat struct {
	Cell      int
	Entries   int
	ObjSeen   int64
	Shared    int64
	SizeBytes int64
	Terms     []CellTermStat
}

// CellStatsReq asks a worker peer for its per-cell statistics. The
// reply reflects every op batch sent before the call.
type CellStatsReq struct {
	Seq uint64
}

// CellStatsReply answers a CellStatsReq with every non-empty cell.
type CellStatsReply struct {
	Seq   uint64
	Cells []CellStat
}

// CellSpec names one cell share: the whole cell when Keys is nil, or
// only the given registration keys (a Phase I text split). Cell
// WholeQueries with nil Keys, in a copying request, names the slot's
// whole population instead.
type CellSpec struct {
	Cell int
	Keys []string
}

// WholeQueries is the cell id of a whole-query share. In a copying
// ExtractCells it asks for every live query of the slot once (and, with
// Subs, each top-k subscription's whole band); in an InstallCells
// payload its queries are indexed by their own placement rather than
// into one named cell. Global repartition, checkpoints and snapshot
// files use it.
const WholeQueries = -1

// ExtractCells asks a worker peer for the named cell shares. With
// Remove false the shares are copied (a population round; the source
// keeps serving them); with Remove true the queries are extracted from
// the index and their window entries located in the cell released (a
// migration's extraction, sent through the source's hold at the cut, so
// that it follows the source's pre-flip traffic). The share reflects
// every op batch the coordinator sent before the request.
type ExtractCells struct {
	Seq    uint64
	Cells  []CellSpec
	Remove bool
	// Subs attaches each top-k subscription's window entries to its
	// payload (CellPayload.Subs): the entries located in the cell for a
	// cell spec, the whole band for a WholeQueries spec. A hand-off sets
	// it on both of its extractions, global repartition on its population
	// round.
	Subs bool
}

// SubEntries is one top-k subscription's window entries in flight
// (window.Store.SubEntries across the wire), adopted at the destination
// so a relocated subscription keeps its window history.
type SubEntries struct {
	ID      uint64
	Entries []window.Entry
}

// CellPayload is one cell share in flight: the share's queries and, per
// top-k subscription, the window entries that travel with them.
type CellPayload struct {
	Cell    int
	Queries []*model.Query
	Subs    []SubEntries
}

// CellShare answers an ExtractCells. Deltas carries the top-k
// membership updates a removing extraction produced (subscriptions
// dropping their released entries), so the coordinator's board applies
// them in the same control round instead of racing the data stream;
// Epoch tags them with the session's fencing epoch like every delta
// batch the node emits. A worker node sends Cells ahead of the share, as
// the InstallCells pages Pages cuts them into, and the share without.
type CellShare struct {
	Seq    uint64
	Epoch  uint64
	Cells  []CellPayload
	Deltas []window.Delta
}

// InstallCells hands a worker peer cell shares to index and query ids
// to delete (global repartition's departures).
type InstallCells struct {
	Seq     uint64
	Cells   []CellPayload
	Deletes []uint64
}

// Page is an InstallCells request kept encoded, Body after the sequence:
// a page of a cell share as the coordinator reads it, and as its op log
// keeps a slot's population and sends it again, unchanged.
type Page struct {
	Seq  uint64
	Body []byte
}

// InstallAck acknowledges an InstallCells: the share is indexed and
// every op batch sent after the request will be matched against it.
// Deltas carries the top-k membership updates the install produced
// (adopted entries entering a top-k, deletions releasing them),
// epoch-tagged like a CellShare's.
type InstallAck struct {
	Seq    uint64
	Epoch  uint64
	Deltas []window.Delta
}

// WindowDeltaBatch is one batch of sliding-window top-k membership
// deltas (worker → coordinator). Epoch is the session's fencing epoch
// (Hello.Epoch): the coordinator's board drops batches below the
// highest epoch it has seen from the slot, which is what keeps TopKSet
// exact across crash replay — a recovering session re-produces the
// window under a higher epoch, and the board retracts the old session's
// contributions wholesale instead of double-counting them.
type WindowDeltaBatch struct {
	Epoch  uint64
	Deltas []window.Delta
}

// AdvanceWindow asks a worker peer to expire its sliding windows up to
// Now (the coordinator's clock, the single clock domain window expiry
// runs in cluster-wide). The advance observes every op batch sent
// before it.
type AdvanceWindow struct {
	Seq uint64
	Now time.Time
}

// AdvanceAck answers an AdvanceWindow with the expiry's membership
// deltas, tagged with the session's fencing epoch like a
// WindowDeltaBatch.
type AdvanceAck struct {
	Seq    uint64
	Epoch  uint64
	Deltas []window.Delta
}

// ResetWindow starts a fresh per-cell load window (no acknowledgement).
// Like Goodbye and Ping it has an empty payload.
type ResetWindow struct{}

// Goodbye ends the sender's half of the conversation; a peer that
// refuses a Hello answers with one instead of a Welcome.
type Goodbye struct{}

// Ping is a liveness beacon (worker → coordinator); see TypePing.
type Ping struct{}

// CheckHandshake validates the protocol fields a Hello or Welcome opens
// with; the handshake decoders call it before reading anything else.
func CheckHandshake(magic string, version int) error {
	if magic != Magic {
		return fmt.Errorf("wire: bad magic %q (want %q)", magic, Magic)
	}
	if version != Version {
		return fmt.Errorf("wire: protocol version %d (want %d)", version, Version)
	}
	return nil
}

// Frame is one of the protocol's frame kinds: a value that knows its type
// byte and its binary layout. Conn.Send takes a Frame; the hot paths
// append the same layouts into pooled buffers themselves (FrameWriter).
// OpBatch is the one kind that is not a Frame: its layout opens with the
// batch number SendOps assigns, so it only travels that way.
type Frame interface {
	frameType() byte
	appendTo(dst []byte) []byte
}

func (Hello) frameType() byte            { return TypeHello }
func (Welcome) frameType() byte          { return TypeWelcome }
func (MatchBatch) frameType() byte       { return TypeMatchBatch }
func (Drain) frameType() byte            { return TypeDrain }
func (DrainAck) frameType() byte         { return TypeDrainAck }
func (StatsReq) frameType() byte         { return TypeStatsReq }
func (StatsReply) frameType() byte       { return TypeStatsReply }
func (Goodbye) frameType() byte          { return TypeGoodbye }
func (CellStatsReq) frameType() byte     { return TypeCellStatsReq }
func (CellStatsReply) frameType() byte   { return TypeCellStatsReply }
func (ExtractCells) frameType() byte     { return TypeExtractCells }
func (CellShare) frameType() byte        { return TypeCellShare }
func (InstallCells) frameType() byte     { return TypeInstallCells }
func (InstallAck) frameType() byte       { return TypeInstallAck }
func (ResetWindow) frameType() byte      { return TypeResetWindow }
func (Ping) frameType() byte             { return TypePing }
func (WindowDeltaBatch) frameType() byte { return TypeWindowDeltaBatch }
func (AdvanceWindow) frameType() byte    { return TypeAdvanceWindow }
func (AdvanceAck) frameType() byte       { return TypeAdvanceAck }
func (Page) frameType() byte             { return TypeInstallCells }

func (f Hello) appendTo(b []byte) []byte          { return AppendHello(b, f) }
func (f Welcome) appendTo(b []byte) []byte        { return AppendWelcome(b, f) }
func (f MatchBatch) appendTo(b []byte) []byte     { return AppendMatchBatch(b, f.Matches) }
func (f Drain) appendTo(b []byte) []byte          { return AppendDrain(b, f) }
func (f DrainAck) appendTo(b []byte) []byte       { return AppendDrainAck(b, f) }
func (f StatsReq) appendTo(b []byte) []byte       { return AppendStatsReq(b, f) }
func (f StatsReply) appendTo(b []byte) []byte     { return AppendStatsReply(b, f) }
func (Goodbye) appendTo(b []byte) []byte          { return b }
func (f CellStatsReq) appendTo(b []byte) []byte   { return AppendCellStatsReq(b, f) }
func (f CellStatsReply) appendTo(b []byte) []byte { return AppendCellStatsReply(b, f) }
func (f ExtractCells) appendTo(b []byte) []byte   { return AppendExtractCells(b, f) }
func (f CellShare) appendTo(b []byte) []byte      { return AppendCellShare(b, f) }
func (f InstallCells) appendTo(b []byte) []byte   { return AppendInstallCells(b, f) }
func (f InstallAck) appendTo(b []byte) []byte     { return AppendInstallAck(b, f) }
func (ResetWindow) appendTo(b []byte) []byte      { return b }
func (Ping) appendTo(b []byte) []byte             { return b }
func (f AdvanceWindow) appendTo(b []byte) []byte  { return AppendAdvanceWindow(b, f) }
func (f AdvanceAck) appendTo(b []byte) []byte     { return AppendAdvanceAck(b, f) }
func (p Page) appendTo(b []byte) []byte           { return append(binary.AppendUvarint(b, p.Seq), p.Body...) }
func (f WindowDeltaBatch) appendTo(b []byte) []byte {
	return AppendWindowDeltaBatch(b, f.Epoch, f.Deltas)
}

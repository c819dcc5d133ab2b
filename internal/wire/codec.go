package wire

import (
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
// encoding.
const Version = 2

// Roles named in the handshake.
const (
	RoleCoordinator = "coordinator"
	RoleWorker      = "worker"
	RoleMerger      = "merger"
)

// Hello is the coordinator's opening message to a peer. Beyond
// identifying the protocol it distributes everything a worker node needs
// to agree with the coordinator's routing: the monitored bounds and the
// grid granularity (so gridt/GI2 cell ids computed on either side of the
// wire coincide) and the sampled term statistics (so both sides pick the
// same least-frequent registration keyword for a query).
//
// A Hello with Stream > 0 attaches a data connection to an existing
// session: only Role, Task, SessionID and Stream cross the wire, and the
// peer reads the geometry from the session's control Hello alone.
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
	// Terms carries the partitioning sample's term frequencies
	// (textutil.Stats.Vector); nil means "no statistics".
	Terms map[string]int
	// HeartbeatMillis asks the peer to send a TypePing every this many
	// milliseconds; 0 disables heartbeats.
	HeartbeatMillis int
	// Epoch is the coordinator's fencing epoch for this worker slot. A
	// node refuses a Hello whose epoch is below one it has already
	// accepted, so a stale coordinator session (severed but not yet dead)
	// cannot reclaim a slot a recovery session has taken over.
	Epoch uint64
	// Streams is the number of data connections the coordinator wants
	// for this hop; a worker refuses a control Hello that asks for none.
	// The Welcome's Streams is the granted count. Mergers ignore it: one
	// connection per upstream task keeps their dedup windows
	// per-connection.
	Streams int
	// Stream tags which connection of a multi-stream session this Hello
	// opens: 0 is the control connection (which creates the session),
	// 1..Streams attach data connections to it.
	Stream int
	// SessionID joins a session's connections together; the coordinator
	// draws a fresh nonzero id per dial, and a worker refuses a control
	// Hello without one and data connections whose id does not match the
	// live session.
	SessionID uint64
}

// Welcome is the peer's handshake reply.
type Welcome struct {
	// Role the replying peer is playing (RoleWorker or RoleMerger).
	Role string
	// Task echoes the task index the peer accepted.
	Task int
	// Streams is the granted data-connection count (workers; 0 from a
	// merger).
	Streams int
}

// OpEnv is one stream operation in flight with its submit timestamp
// (the coordinator's clock; it returns to the coordinator inside match
// envelopes, so latency is measured in a single clock domain). Envelopes
// move between stages as []OpEnv batches, in-process and on the wire
// alike.
type OpEnv struct {
	Op model.Op
	T0 time.Time
	// Refill marks a crash-replayed (or migration-adopted) object sent
	// purely to rebuild the worker's sliding-window state: the worker
	// observes it and re-offers it to top-k subscriptions, but emits no
	// boolean matches — those were delivered before the coordinator's
	// checkpoint covered the op, and re-emitting them against queries
	// inserted later would fabricate matches that never happened.
	Refill bool
	// Solo marks an object the dispatcher routed to exactly one worker:
	// no second engine sees it, so its matches cannot be reported twice.
	// Coordinator-local: it is not encoded, and a decoded envelope has it
	// false.
	Solo bool
}

// OpBatch is one transfer batch of operations — one frame per batch, so
// wire framing reuses the engine's batch boundaries.
type OpBatch struct {
	Ops []OpEnv
}

// MatchEnv is one match result in flight with the originating
// operation's submit timestamp. Matches move to the mergers as
// []MatchEnv batches.
type MatchEnv struct {
	M  model.Match
	T0 time.Time
	// Solo is the producing object's OpEnv.Solo, copied by an in-process
	// engine: a merger delivers such a match without consulting its dedup
	// window. Coordinator-local: it is not encoded, so a match that
	// crossed the wire has it false and is always deduplicated.
	Solo bool
}

// MatchBatch is one transfer batch of matches.
type MatchBatch struct {
	Matches []MatchEnv
}

// Drain asks the peer to acknowledge once everything sent before this
// frame has been fully processed. FIFO does not span a worker session's
// data connections, so Ops carries the barrier; a merger session is one
// connection, where FIFO suffices and Ops stays zero.
type Drain struct {
	Seq uint64
	// Ops is the sender's cumulative op count for the session: the peer
	// holds the ack until it has processed at least this many ops (and
	// has flushed the matches they produced to the wire). Zero means
	// nothing has been sent yet.
	Ops int64
}

// DrainAck answers a Drain.
type DrainAck struct {
	Seq uint64
	// Done is the peer's cumulative processed-operation count (workers).
	Done int64
	// Emitted is the peer's cumulative emitted-match count (workers) or
	// delivered-match count (mergers).
	Emitted int64
	// Duplicates is the peer's cumulative duplicate count (mergers).
	Duplicates int64
	// Deltas is the worker's cumulative emitted window-delta count
	// (WindowDeltaBatch frames), so a drain can also wait for the top-k
	// delta stream to be received, not just the matches.
	Deltas int64
}

// StatsReq asks a peer for its counters without a drain guarantee.
type StatsReq struct {
	Seq uint64
	// Ops is the session barrier (see Drain.Ops): the reply waits until
	// at least this many session ops are processed.
	Ops int64
}

// StatsReply answers a StatsReq.
type StatsReply struct {
	Seq uint64
	// Delivered counts deduplicated matches delivered (mergers) or
	// emitted (workers); Duplicates counts suppressed duplicates.
	Delivered  int64
	Duplicates int64
	// Queries is the peer's live query count (workers).
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

// Fence announces the coordinator's routing epoch after an adjustment
// flip. Informational.
type Fence struct {
	Epoch uint64
}

// CellTermStat is one registration key's statistics within a cell
// (gi2.TermStat across the wire): the Phase I split planner's input.
type CellTermStat struct {
	Term    string
	Queries int
	ObjHits int64
}

// CellStat is one grid cell's planner view on a worker node: n_q
// (Entries), the Definition-3 window load L_g = n_o·n_q (Load), the
// per-window object count n_o (ObjSeen), and the serialised size S_g
// (SizeBytes) that prices a migration.
type CellStat struct {
	Cell      int
	Entries   int
	ObjSeen   int64
	SizeBytes int64
	Load      float64
	Terms     []CellTermStat
}

// CellStatsReq asks a worker peer for its per-cell statistics. The
// reply reflects every op batch sent before the call (the Ops barrier).
type CellStatsReq struct {
	Seq uint64
	// Ops is the session barrier (see Drain.Ops).
	Ops int64
}

// CellStatsReply answers a CellStatsReq with every non-empty cell.
type CellStatsReply struct {
	Seq   uint64
	Cells []CellStat
}

// CellSpec names one cell share: the whole cell when Keys is nil, or
// only the given registration keys (a Phase I text split).
type CellSpec struct {
	Cell int
	Keys []string
}

// ExtractCells asks a worker peer for the named cell shares. With
// Remove false the shares are copied (the migration's copy step, the
// source keeps serving them); with Remove true the queries are
// extracted from the index and — for whole-cell shares — the window
// ring released (the deferred-extraction step, after the source has
// drained its pre-flip traffic).
type ExtractCells struct {
	Seq    uint64
	Cells  []CellSpec
	Remove bool
	// Ops is the session barrier (see Drain.Ops): the share must reflect
	// every op batch the coordinator sent before the call — that is the
	// migration barrier — so the extraction waits for the session's
	// processed-op count to reach it.
	Ops int64
	// Subs asks for each top-k subscription's held window entries
	// alongside the cell shares (CellPayload.Subs). Global repartition
	// sets it when discovering a remote population: a whole-query
	// relocation must carry the subscription's cross-cell history, which
	// the cell rings alone cannot supply. Plain cell migrations leave it
	// false and move ring state only, like their in-process counterpart.
	Subs bool
}

// SubEntries is one top-k subscription's held window entries in flight
// (window.Store.SubEntries across the wire): installed via AdoptEntries
// at the destination so a relocated subscription keeps its window
// history even when the entries span several cells.
type SubEntries struct {
	ID      uint64
	Entries []window.Entry
}

// CellPayload is one cell share in flight: the share's queries and the
// cell's window ring entries, so sliding-window state travels with the
// queries exactly as it does between in-process workers. Subs carries
// per-subscription held entries for whole-query relocations (global
// repartition), which may span cells the payload does not.
type CellPayload struct {
	Cell    int
	Queries []*model.Query
	Ring    []window.Entry
	Subs    []SubEntries
}

// CellShare answers an ExtractCells. Deltas carries the top-k
// membership updates a removing extraction produced (subscriptions
// dropping their released entries), so the coordinator's board applies
// them in the same control round instead of racing the data stream;
// Epoch tags them with the session's fencing epoch like every delta
// batch the node emits.
type CellShare struct {
	Seq    uint64
	Epoch  uint64
	Cells  []CellPayload
	Deltas []window.Delta
}

// InstallCells hands a worker peer cell shares to index and query ids
// to delete from shares installed earlier (reconciling deletions that
// reached the migration source between copy and routing flip).
type InstallCells struct {
	Seq     uint64
	Cells   []CellPayload
	Deletes []uint64
}

// InstallAck acknowledges an InstallCells: the share is indexed and
// every op batch sent after the request will be matched against it.
// Deltas carries the top-k membership updates the install produced
// (adoptions refilling heaps, deletions releasing them), epoch-tagged
// like a CellShare's.
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
// runs in cluster-wide). Ops is the session barrier (see Drain.Ops): the
// advance observes every op batch sent before it.
type AdvanceWindow struct {
	Seq uint64
	Ops int64
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
// send-order sequence SendOps assigns, so it only travels that way.
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
func (Fence) frameType() byte            { return TypeFence }
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

func (f Hello) appendTo(b []byte) []byte          { return AppendHello(b, f) }
func (f Welcome) appendTo(b []byte) []byte        { return AppendWelcome(b, f) }
func (f MatchBatch) appendTo(b []byte) []byte     { return AppendMatchBatch(b, f.Matches) }
func (f Drain) appendTo(b []byte) []byte          { return AppendDrain(b, f) }
func (f DrainAck) appendTo(b []byte) []byte       { return AppendDrainAck(b, f) }
func (f StatsReq) appendTo(b []byte) []byte       { return AppendStatsReq(b, f) }
func (f StatsReply) appendTo(b []byte) []byte     { return AppendStatsReply(b, f) }
func (f Fence) appendTo(b []byte) []byte          { return AppendFence(b, f) }
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
func (f WindowDeltaBatch) appendTo(b []byte) []byte {
	return AppendWindowDeltaBatch(b, f.Epoch, f.Deltas)
}

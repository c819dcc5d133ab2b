// Package wire is the network transport of a multi-process PS2Stream
// deployment: length-prefixed framing for the operation batches,
// match batches and control messages that cross the dispatcher→worker
// hop when worker tasks run as separate OS processes (cmd/psnode). The
// paper deploys on an Apache Storm cluster whose tuples cross real
// machine boundaries (§VI); this package is the repro's equivalent of
// Storm's transport layer, with in-process channels remaining the fast
// path for single-process runs.
//
// # Frame format
//
// Every message is one frame:
//
//	uint32 big-endian  n        (1 + len(payload); bounds the read)
//	byte               type     (Type* constants)
//	n-1 bytes          payload  (encoding per frame kind)
//
// Frames are self-delimiting: a reader can skip a type it does not know,
// and a truncated or corrupted frame fails at a frame boundary instead of
// poisoning the connection's decoder state. Every frame kind has exactly
// one payload encoding, the binary layout of binary.go (zero-allocation
// for the hot data-plane frames), and both ends of a hop are built from
// one tree: the handshake carries one protocol version and refuses any
// other (see Version). One op or match frame carries a whole transfer
// batch of tuples (docs/WIRE.md).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame types. The wire protocol is versioned by the handshake (Hello
// and Welcome open with Magic and Version); types are never renumbered.
const (
	// TypeHello opens a connection: coordinator → peer, carrying the
	// grid geometry the peer needs so gridt cell ids agree across
	// processes, the slot's task and fencing epoch, and the heartbeat
	// interval.
	TypeHello byte = 1
	// TypeWelcome acknowledges a Hello: peer → coordinator.
	TypeWelcome byte = 2
	// TypeOpBatch carries one transfer batch of stream operations
	// (coordinator → worker).
	TypeOpBatch byte = 3
	// TypeMatchBatch carries one batch of matches (worker → coordinator).
	TypeMatchBatch byte = 4
	// TypeDrain asks a worker to acknowledge once every frame received
	// before it has been fully processed (the Drain marker's hop).
	TypeDrain byte = 5
	// TypeDrainAck answers a Drain, behind the matches of every op batch
	// before it.
	TypeDrainAck byte = 6
	// TypeStatsReq asks a worker for its counters.
	TypeStatsReq byte = 7
	// TypeStatsReply answers a StatsReq.
	TypeStatsReply byte = 8
	// Type 9 is retired: it announced a routing epoch that no decision
	// read. It is never reused.

	// TypeGoodbye ends the sender's half of the conversation; the peer
	// finishes writing pending output and closes.
	TypeGoodbye byte = 10
	// TypeCellStatsReq asks a worker peer for its per-cell planner
	// statistics (the Phase I/II migration input: entries, window object
	// and shared-object counts, serialised size, per-term registration
	// counts).
	TypeCellStatsReq byte = 11
	// TypeCellStatsReply answers a CellStatsReq.
	TypeCellStatsReply byte = 12
	// TypeExtractCells asks a worker peer for a serialised cell share —
	// queries plus their top-k window entries — either copied (snapshot) or
	// removed from the peer's index (the extraction step of a
	// migration). FIFO orders it behind every op batch sent before it, so
	// the share reflects all pre-flip traffic.
	TypeExtractCells byte = 13
	// TypeCellShare answers an ExtractCells, after the pages of its cells.
	TypeCellShare byte = 14
	// TypeInstallCells hands a worker peer a cell share to index (the
	// receiving half of a migration) and query ids to delete (global
	// repartition's departures); from a worker, a page of a CellShare.
	TypeInstallCells byte = 15
	// TypeInstallAck acknowledges an InstallCells once the share is
	// indexed; ops sent after the ack's request are matched against it.
	TypeInstallAck byte = 16
	// TypeResetWindow starts a fresh per-cell load window on a worker
	// peer (gi2 ResetWindow): the adjustment controller sends it after
	// each evaluation so Definition-3 cell loads stay per-interval on
	// every node, local or remote. No acknowledgement; FIFO ordering
	// guarantees the next CellStatsReq observes the reset.
	TypeResetWindow byte = 17
	// TypePing is a worker node's liveness beacon (worker → coordinator,
	// sent every Hello.HeartbeatMillis when the Hello asks for heartbeats).
	// It carries no payload; its arrival resets the coordinator's read
	// deadline, so a silent peer — kill -9, network partition — surfaces
	// as ErrWorkerDown instead of an indefinite stall.
	TypePing byte = 18
	// TypeWindowDeltaBatch carries one batch of sliding-window top-k
	// membership deltas (worker → coordinator): the worker folds the
	// window.Deltas produced while processing op batches into one hot
	// frame per transfer batch, tagged with the session's fencing epoch
	// so the coordinator's board can drop stale replays.
	TypeWindowDeltaBatch byte = 19
	// TypeAdvanceWindow asks a worker peer to expire its sliding windows
	// up to the coordinator's clock (coordinator → worker): the fenced
	// control round that keeps cluster-wide window expiry consistent.
	// Like a Drain it follows every op batch sent before it.
	TypeAdvanceWindow byte = 20
	// TypeAdvanceAck answers an AdvanceWindow with the expiry's top-k
	// membership deltas, tagged with the session's fencing epoch.
	TypeAdvanceAck byte = 21
)

// frameKind is one row of the frame table: a frame type's name, which
// labels its metric series, and the decoder of a control frame (nil for
// any other).
type frameKind struct {
	name   string
	decode func([]byte) (Frame, error)
}

// frameKinds is the frame table, indexed by type: the one declaration of
// every frame type that TypeName, RegisterMetrics and DecodeControl
// read. A retired type keeps an empty row.
var frameKinds = [...]frameKind{
	TypeHello:            {name: "hello"},
	TypeWelcome:          {name: "welcome"},
	TypeOpBatch:          {name: "op_batch"},
	TypeMatchBatch:       {name: "match_batch"},
	TypeDrain:            {name: "drain"},
	TypeDrainAck:         {name: "drain_ack"},
	TypeStatsReq:         {"stats_req", decodeFrame(DecodeBinStatsReq)},
	TypeStatsReply:       {"stats_reply", decodeFrame(DecodeBinStatsReply)},
	TypeGoodbye:          {name: "goodbye"},
	TypeCellStatsReq:     {"cell_stats_req", decodeFrame(DecodeBinCellStatsReq)},
	TypeCellStatsReply:   {"cell_stats_reply", decodeFrame(DecodeBinCellStatsReply)},
	TypeExtractCells:     {"extract_cells", decodeFrame(DecodeBinExtractCells)},
	TypeCellShare:        {"cell_share", decodeFrame(DecodeBinCellShare)},
	TypeInstallCells:     {"install_cells", decodeFrame(DecodeBinInstallCells)},
	TypeInstallAck:       {"install_ack", decodeFrame(DecodeBinInstallAck)},
	TypeResetWindow:      {"reset_window", func([]byte) (Frame, error) { return ResetWindow{}, nil }},
	TypePing:             {name: "ping"},
	TypeWindowDeltaBatch: {name: "window_delta_batch"},
	TypeAdvanceWindow:    {"advance_window", decodeFrame(DecodeBinAdvanceWindow)},
	TypeAdvanceAck:       {"advance_ack", decodeFrame(DecodeBinAdvanceAck)},
}

// TypeName names a frame type for metric labels: "other" for a type
// without a row.
func TypeName(typ byte) string {
	if int(typ) < len(frameKinds) && frameKinds[typ].name != "" {
		return frameKinds[typ].name
	}
	return "other"
}

// MaxFrameSize bounds a frame's length field: a reader rejects larger
// frames before allocating, so a corrupt or malicious length cannot
// trigger a huge allocation. 16 MiB comfortably holds the largest
// legitimate frame: a transfer batch of operations or matches, or one
// page of a cell share (PageBudget).
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned by ReadFrame for frames whose declared
// length exceeds MaxFrameSize, and by WriteFrame and FrameWriter.Send for
// frames that would.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")

// ErrBadFrame wraps framing-level corruption (zero-length frame,
// truncated header or body).
var ErrBadFrame = errors.New("wire: malformed frame")

// WriteFrame writes one frame to w. It does not flush: callers flush at
// batch boundaries (Conn.Send does both).
func WriteFrame(w *bufio.Writer, typ byte, payload []byte) error {
	n := 1 + len(payload)
	if n > MaxFrameSize {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := w.WriteByte(typ); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r. io.EOF is returned untouched at a
// clean frame boundary; a connection dropped mid-frame surfaces as
// ErrBadFrame wrapping io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading header: %v", ErrBadFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: zero-length frame", ErrBadFrame)
	}
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: reading %d-byte body: %v", ErrBadFrame, n, err)
	}
	return body[0], body[1:], nil
}

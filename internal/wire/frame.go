// Package wire is the network transport of a multi-process PS2Stream
// deployment: length-prefixed framing for the operation batches,
// match batches and control messages that cross dispatcher→worker and
// worker→merger hops when topology tasks run as separate OS processes
// (cmd/psnode). The paper deploys on an Apache Storm cluster whose
// tuples cross real machine boundaries (§VI); this package is the
// repro's equivalent of Storm's transport layer, with in-process
// channels remaining the fast path for single-process runs.
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
	// grid geometry and term statistics the peer needs so gridt cell
	// ids agree across processes.
	TypeHello byte = 1
	// TypeWelcome acknowledges a Hello: peer → coordinator.
	TypeWelcome byte = 2
	// TypeOpBatch carries one transfer batch of stream operations
	// (coordinator → worker).
	TypeOpBatch byte = 3
	// TypeMatchBatch carries one batch of matches (worker → coordinator,
	// or coordinator → merger).
	TypeMatchBatch byte = 4
	// TypeDrain asks the peer to acknowledge once every frame received
	// before it has been fully processed (the end-to-end drain barrier).
	TypeDrain byte = 5
	// TypeDrainAck answers a Drain with the peer's cumulative counters.
	TypeDrainAck byte = 6
	// TypeStatsReq asks the peer for its delivery counters.
	TypeStatsReq byte = 7
	// TypeStatsReply answers a StatsReq.
	TypeStatsReply byte = 8
	// TypeFence announces a routing-epoch advance (core's route fence) so
	// peers can tag diagnostics with the coordinator's routing
	// generation. Informational; no acknowledgement.
	TypeFence byte = 9
	// TypeGoodbye ends the sender's half of the conversation; the peer
	// finishes writing pending output and closes.
	TypeGoodbye byte = 10
	// TypeCellStatsReq asks a worker peer for its per-cell planner
	// statistics (the Phase I/II migration input: entries, window load,
	// serialised size, per-term registration counts).
	TypeCellStatsReq byte = 11
	// TypeCellStatsReply answers a CellStatsReq.
	TypeCellStatsReply byte = 12
	// TypeExtractCells asks a worker peer for a serialised cell share —
	// queries plus window ring state — either copied (snapshot) or
	// removed from the peer's index (the deferred-extraction step of a
	// migration). Its Ops barrier orders it behind every op batch sent
	// before it, so the share reflects all pre-flip traffic.
	TypeExtractCells byte = 13
	// TypeCellShare answers an ExtractCells with the cell payloads.
	TypeCellShare byte = 14
	// TypeInstallCells hands a worker peer a cell share to index (the
	// receiving half of a migration) and query ids to delete (deletions
	// routed to the source between copy and flip).
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
	// control round that keeps cluster-wide window expiry consistent. It
	// carries the session's Ops barrier like a Drain, so the advance
	// observes every op batch sent before it.
	TypeAdvanceWindow byte = 20
	// TypeAdvanceAck answers an AdvanceWindow with the expiry's top-k
	// membership deltas, tagged with the session's fencing epoch.
	TypeAdvanceAck byte = 21
)

// MaxFrameSize bounds a frame's length field: a reader rejects larger
// frames before allocating, so a corrupt or malicious length cannot
// trigger a huge allocation. 16 MiB comfortably holds the largest
// legitimate frame (a transfer batch of maximal queries).
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned by ReadFrame for frames whose declared
// length exceeds MaxFrameSize.
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

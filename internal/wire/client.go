package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ps2stream/internal/window"
)

// ErrClosed is returned by client operations after the connection ended.
var ErrClosed = errors.New("wire: connection closed")

// ErrWorkerDown marks a connection failure that means the worker peer is
// gone — a heartbeat deadline expired, the TCP stream broke mid-frame,
// or the stream ended without the Goodbye that a graceful shutdown
// always sends (a kill -9 often yields a clean FIN at a frame boundary,
// which would otherwise masquerade as an orderly end). Callers detect it
// with errors.Is and start recovery instead of treating the failure as
// fatal.
var ErrWorkerDown = errors.New("wire: worker down")

// hop is one connection to a peer, the shape worker and merger hops
// share: frames queue in call order on one writer, one read loop parks
// the control replies, and so every reply follows the frames sent before
// its request.
type hop struct {
	conn     *Conn
	writer   *FrameWriter
	seq      atomic.Uint64 // numbers the control rounds
	readDone chan struct{}
	readErr  error // valid after readDone closes

	goodbyeOnce sync.Once
	goodbyeErr  error
}

// CloseSend ends the coordinator's half of the stream: pending frames
// are flushed and the connection says Goodbye. The peer answers in kind
// once it has flushed its own output (from a worker, that surfaces as
// io.EOF from RecvMatches).
func (h *hop) CloseSend() error {
	h.goodbyeOnce.Do(func() {
		if err := h.writer.Drain(); err != nil {
			h.goodbyeErr = err
			return
		}
		h.goodbyeErr = h.conn.Send(Goodbye{})
	})
	return h.goodbyeErr
}

// close tears the connection and its writer down.
func (h *hop) close() error {
	err := h.conn.Close()
	h.writer.Stop()
	return err
}

// WorkerClient is the coordinator's half of a dispatcher→worker hop: it
// streams operation batches to a remote worker node and receives the
// worker's match batches and control acknowledgements.
//
// The hop is one connection, shaped like a merger hop: op batches and
// every control frame queue in call order on one FrameWriter (encode
// here, socket I/O on the writer goroutine), and the node answers in
// arrival order. FIFO is therefore the barrier — a control reply follows
// the matches of every op batch sent before its request, and the worker
// observes the same total op order an in-process channel would deliver.
//
// Safe for one sender goroutine (SendOps), one receiver goroutine
// (RecvMatches) and concurrent control callers (Drain, Stats, ...).
type WorkerClient struct {
	hop
	// addr is the address this client dialled — recovery keeps it to
	// redial the same node after a crash (see Addr()).
	addr string
	// hello is the handshake this client opened the connection with —
	// the geometry the peer pinned its index to (see Hello()).
	hello Hello
	// matches buffers decoded match batches between the read loop and
	// RecvMatches; bounded so a slow consumer backpressures the wire.
	matches chan MatchBatch
	acks    chan DrainAck
	// Control-round reply channels (buffered; stale replies are drained
	// at round start and skipped by seq matching).
	stats       chan StatsReply
	cellStats   chan CellStatsReply
	shares      chan CellShare
	installAcks chan InstallAck
	advances    chan AdvanceAck

	// deltaHandler consumes the worker's spontaneous top-k window delta
	// batches; see SetDeltaHandler.
	dhMu         sync.Mutex
	deltaHandler func(epoch uint64, ds []window.Delta)

	drainMu sync.Mutex
	// ctrlMu serialises the migration/stats control rounds (Stats,
	// CellStats, ExtractCells, InstallCells, AdvanceWindow); Drain keeps
	// its own mutex and reply channel so a Flush barrier can interleave
	// with an adjustment in flight.
	ctrlMu sync.Mutex

	// sendMu serialises SendOps' batch numbering (sends are normally
	// single-goroutine; the lock makes replay hand-offs safe too).
	sendMu sync.Mutex
	// batchSeq numbers op batches 0, 1, 2, … (guarded by sendMu); the
	// node refuses a batch that is not the next one.
	batchSeq uint64

	// closed unblocks the read loop's channel send when the consumer is
	// gone (Close called mid-stream, e.g. a cancelled run).
	closed    chan struct{}
	closeOnce sync.Once
}

// DialWorker connects to a worker node with backoff and performs the
// handshake. The returned client's read loop is already running. When
// hello.HeartbeatMillis is set the connection's read deadline is pinned
// to four heartbeat intervals, so a silently dead peer surfaces as
// ErrWorkerDown within that window.
func DialWorker(addr string, hello Hello, b Backoff) (*WorkerClient, error) {
	conn, err := handshake(addr, hello, b, RoleWorker)
	if err != nil {
		return nil, err
	}
	if hello.HeartbeatMillis > 0 {
		conn.ReadTimeout = 4 * time.Duration(hello.HeartbeatMillis) * time.Millisecond
	}
	// Reply channels get headroom beyond the single round in flight: a
	// late reply from a timed-out round can land between a new round's
	// drainStale and its own reply, and with capacity 1 the read loop's
	// non-blocking send would drop the *genuine* reply behind it.
	// awaitReply skips stale seqs, so extra buffered replies are benign.
	w := &WorkerClient{
		hop:         hop{conn: conn, writer: NewFrameWriter(conn, 0), readDone: make(chan struct{})},
		addr:        addr,
		hello:       hello,
		matches:     make(chan MatchBatch, 128),
		acks:        make(chan DrainAck, 4),
		stats:       make(chan StatsReply, 4),
		cellStats:   make(chan CellStatsReply, 4),
		shares:      make(chan CellShare, 4),
		installAcks: make(chan InstallAck, 4),
		advances:    make(chan AdvanceAck, 4),
		closed:      make(chan struct{}),
	}
	go w.readLoop()
	return w, nil
}

// Hello returns the handshake this client dialled with — the topology
// shape (Workers), grid geometry and batch size the peer indexed
// against. The coordinator validates it against the final Config so a
// mutation between dial and New cannot silently disagree with the node.
func (w *WorkerClient) Hello() Hello { return w.hello }

// Addr returns the address this client dialled, so a recovery layer can
// redial the same worker node after a connection failure.
func (w *WorkerClient) Addr() string { return w.addr }

// handshake dials addr and performs the Hello/Welcome round, expecting
// the peer to identify as wantRole. Transport failures during the round
// retry under the same backoff budget as the connect itself: a crashed
// peer's port can accept a connect and reset the first write (or close
// before the welcome) while its replacement process is still binding,
// and a recovery redial must ride that window out rather than give up.
// Protocol refusals — a Goodbye or any other frame in the Welcome's
// place, wrong magic/version, wrong role — stay fatal; retrying a peer
// that answered wrongly cannot help.
func handshake(addr string, hello Hello, b Backoff, wantRole string) (*Conn, error) {
	if hello.Role == "" {
		hello.Role = RoleCoordinator
	}
	b = b.withDefaults()
	ctx, cancel := context.WithTimeout(context.Background(), b.MaxElapsed)
	defer cancel()
	delay := b.Base
	var lastErr error
	for i := 0; i < b.Attempts; i++ {
		if i > 0 {
			jitter := time.Duration(rand.Int63n(int64(delay)/2+1)) - delay/4
			select {
			case <-time.After(delay + jitter):
			case <-ctx.Done():
				return nil, fmt.Errorf("wire: handshake with %s: %w (deadline after %d attempts)", addr, lastErr, i)
			}
			if delay *= 2; delay > b.Max {
				delay = b.Max
			}
		}
		conn, err := dialOnce(ctx, addr)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, fmt.Errorf("wire: dialing %s: %w (deadline after %d attempts)", addr, lastErr, i+1)
			}
			continue
		}
		fatal, err := helloRound(conn, addr, hello, wantRole)
		if err == nil {
			return conn, nil
		}
		conn.Close()
		lastErr = err
		if fatal {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("wire: handshake with %s: %w (deadline after %d attempts)", addr, lastErr, i+1)
		}
	}
	return nil, fmt.Errorf("wire: handshake with %s: %w (after %d attempts)", addr, lastErr, b.Attempts)
}

// helloRound performs one Hello/Welcome exchange on an established
// connection. fatal=false marks transport failures the dial loop should
// retry; fatal=true marks protocol refusals. The connection is the
// caller's to close on error.
func helloRound(conn *Conn, addr string, hello Hello, wantRole string) (fatal bool, err error) {
	if err := conn.Send(hello); err != nil {
		return false, fmt.Errorf("wire: sending hello to %s: %w", addr, err)
	}
	typ, payload, err := conn.RecvTimeout(DefaultHandshakeTimeout)
	if err != nil {
		return false, fmt.Errorf("wire: awaiting welcome from %s: %w", addr, err)
	}
	if typ != TypeWelcome {
		return true, fmt.Errorf("wire: %s answered hello with frame type %d", addr, typ)
	}
	wel, err := DecodeBinWelcome(payload)
	if err != nil {
		return true, err
	}
	if wel.Role != wantRole {
		return true, fmt.Errorf("wire: %s identifies as %q, want %q", addr, wel.Role, wantRole)
	}
	return false, nil
}

// classifyReadErr turns a read-loop error into the session's terminal
// error.
func (w *WorkerClient) classifyReadErr(err error) error {
	if err == io.EOF {
		// A clean FIN without a Goodbye is a crash, not a graceful end
		// (kill -9 at a frame boundary).
		return fmt.Errorf("%w: stream ended without goodbye", ErrWorkerDown)
	}
	select {
	case <-w.closed:
		// Close() tore the connection down locally; the resulting read
		// error is ours, not the peer's.
		return err
	default:
		return fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
}

// readLoop serves the connection in arrival order: match and window
// delta batches, the replies of the control rounds, heartbeats and the
// closing Goodbye. A reply is parked only after every batch before it
// was handed on, which is what makes FIFO the barrier on this side too.
func (w *WorkerClient) readLoop() {
	defer close(w.readDone)
	defer close(w.matches)
	for {
		typ, payload, err := w.conn.Recv()
		if err != nil {
			w.readErr = w.classifyReadErr(err)
			w.conn.Close()
			return
		}
		switch typ {
		case TypeMatchBatch:
			err = w.deliverMatches(payload)
		case TypeWindowDeltaBatch:
			err = w.deliverDeltas(payload)
		case TypeDrainAck:
			err = parkReply(w.acks, DecodeBinDrainAck, payload)
		case TypeStatsReply:
			err = parkReply(w.stats, DecodeBinStatsReply, payload)
		case TypeCellStatsReply:
			err = parkReply(w.cellStats, DecodeBinCellStatsReply, payload)
		case TypeCellShare:
			err = parkReply(w.shares, DecodeBinCellShare, payload)
		case TypeInstallAck:
			err = parkReply(w.installAcks, DecodeBinInstallAck, payload)
		case TypeAdvanceAck:
			err = parkReply(w.advances, DecodeBinAdvanceAck, payload)
		case TypePing:
			// Liveness beacon; receiving it already reset the read
			// deadline, nothing else to do.
		case TypeGoodbye:
			return
		default:
			// Unknown frames are skipped: frames are self-delimiting.
		}
		if err != nil {
			w.readErr = err
			w.conn.Close()
			return
		}
	}
}

// parkReply decodes a control round's reply and parks it for the waiting
// round; a reply nobody has room for is unsolicited and dropped.
func parkReply[T any](ch chan<- T, decode func([]byte) (T, error), payload []byte) error {
	v, err := decode(payload)
	if err != nil {
		return err
	}
	select {
	case ch <- v:
	default:
	}
	return nil
}

// deliverMatches decodes one match batch and hands it to the consumer.
func (w *WorkerClient) deliverMatches(payload []byte) error {
	ms, err := DecodeBinMatchBatch(payload, nil)
	if err != nil {
		return err
	}
	select {
	case w.matches <- MatchBatch{Matches: ms}:
		return nil
	case <-w.closed:
		// The consumer is gone (Close mid-stream, e.g. a cancelled
		// run): stop rather than block forever on the full channel.
		return ErrClosed
	}
}

// SetDeltaHandler installs the consumer for the worker's spontaneous
// top-k window delta batches. The handler runs on the read loop, once
// per frame, with the worker's state epoch so the consumer can fence out
// replayed or pre-crash deltas. Deltas that arrive with no handler
// installed are discarded, so the handler must be installed before top-k
// traffic flows.
func (w *WorkerClient) SetDeltaHandler(h func(epoch uint64, ds []window.Delta)) {
	w.dhMu.Lock()
	w.deltaHandler = h
	w.dhMu.Unlock()
}

// deliverDeltas decodes one spontaneous window delta batch and hands it
// to the delta handler before the read loop moves on, so a Drain whose
// ack follows the batch knows the deltas were already applied.
func (w *WorkerClient) deliverDeltas(payload []byte) error {
	ds, epoch, err := DecodeBinWindowDeltaBatch(payload, nil)
	if err != nil {
		return err
	}
	w.dhMu.Lock()
	h := w.deltaHandler
	w.dhMu.Unlock()
	if h != nil {
		h(epoch, ds)
	}
	return nil
}

// SendOps transfers one operation batch. The whole batch is numbered and
// queued on the writer (encode here, socket I/O on the writer
// goroutine), so the worker observes the exact order this client sent —
// splitting a batch could reorder a query insert against a later object
// and change the match set. A send failure wraps ErrWorkerDown: a broken
// write pipe means the peer (or the path to it) is gone.
func (w *WorkerClient) SendOps(b OpBatch) error {
	if len(b.Ops) == 0 {
		return nil
	}
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	buf := GetBuf()
	buf.B = AppendOpBatch(buf.B, w.batchSeq, b.Ops)
	if err := w.writer.Send(TypeOpBatch, buf); err != nil {
		return fmt.Errorf("%w: sending ops: %v", ErrWorkerDown, err)
	}
	w.batchSeq++
	return nil
}

// RecvMatches blocks for the worker's next match batch. It returns
// io.EOF after the worker's side of the stream ends cleanly, or the
// connection's failure otherwise.
func (w *WorkerClient) RecvMatches() (MatchBatch, error) {
	mb, ok := <-w.matches
	if !ok {
		if w.readErr != nil {
			return MatchBatch{}, w.readErr
		}
		return MatchBatch{}, io.EOF
	}
	return mb, nil
}

// Drain runs the end-to-end drain barrier round: every operation batch
// sent before the call is processed by the worker before the returned
// acknowledgement, whose Emitted field is the worker's cumulative
// emitted-match count for this connection. The ack follows those
// matches on the wire, so every match it counts is already queued for
// RecvMatches (and every delta batch handed to the delta handler).
func (w *WorkerClient) Drain() (DrainAck, error) {
	ack, _, err := roundTrip(&w.hop, &w.drainMu, w.acks, func(r DrainAck) uint64 { return r.Seq },
		func(seq uint64) Frame { return Drain{Seq: seq} })
	return ack, err
}

// SendFence forwards a routing-epoch advance (informational).
func (w *WorkerClient) SendFence(epoch uint64) error {
	return w.writer.SendFrame(Fence{Epoch: epoch})
}

// ResetWindow starts a fresh per-cell load window on the worker
// (fire-and-forget; FIFO covers the next CellStats call).
func (w *WorkerClient) ResetWindow() error {
	return w.writer.SendFrame(ResetWindow{})
}

// drainStale empties a capacity-1 reply channel of any reply left over
// from an abandoned (timed-out) round. Without this, a late stale reply
// parked in the channel would make the read loop's non-blocking send
// drop the *next* round's reply — turning one timeout into a cascade of
// timeouts on a healthy connection. Callers hold the round mutex.
func drainStale[T any](ch <-chan T) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// roundTrip runs one control round under mu: it queues req(seq) behind
// every frame sent before it and waits for the reply with that seq on
// ch. n is the request's encoded payload length.
func roundTrip[T any](h *hop, mu *sync.Mutex, ch chan T, seqOf func(T) uint64, req func(seq uint64) Frame) (reply T, n int, err error) {
	mu.Lock()
	defer mu.Unlock()
	drainStale(ch)
	seq := h.seq.Add(1)
	f := req(seq)
	buf := GetBuf()
	buf.B = f.appendTo(buf.B)
	n = len(buf.B)
	if err := h.writer.Send(f.frameType(), buf); err != nil {
		return reply, 0, err
	}
	reply, err = awaitReply(h, ch, seqOf, seq)
	return reply, n, err
}

// awaitReply waits for the seq-matched reply on ch, failing on read-loop
// termination or the control timeout. Stale replies from abandoned
// rounds are skipped.
func awaitReply[T any](h *hop, ch <-chan T, seqOf func(T) uint64, seq uint64) (T, error) {
	var zero T
	timer := time.NewTimer(DefaultControlTimeout)
	defer timer.Stop()
	for {
		select {
		case r := <-ch:
			if seqOf(r) == seq {
				return r, nil
			}
		case <-h.readDone:
			if h.readErr != nil {
				return zero, h.readErr
			}
			return zero, ErrClosed
		case <-timer.C:
			return zero, fmt.Errorf("wire: control round timed out after %v", DefaultControlTimeout)
		}
	}
}

// Stats polls the worker's counters — emitted matches, live queries,
// and the cumulative per-kind processed-op counts the adjustment
// controller's load detector differences per interval. The reply covers
// every op batch sent before the call.
func (w *WorkerClient) Stats() (StatsReply, error) {
	r, _, err := roundTrip(&w.hop, &w.ctrlMu, w.stats, func(r StatsReply) uint64 { return r.Seq },
		func(seq uint64) Frame { return StatsReq{Seq: seq} })
	return r, err
}

// CellStats fetches the worker's per-cell planner statistics (Phase
// I/II migration input).
func (w *WorkerClient) CellStats() ([]CellStat, error) {
	r, _, err := roundTrip(&w.hop, &w.ctrlMu, w.cellStats, func(r CellStatsReply) uint64 { return r.Seq },
		func(seq uint64) Frame { return CellStatsReq{Seq: seq} })
	return r.Cells, err
}

// ExtractCells fetches the named cell shares — copied with remove
// false, extracted from the peer's index with remove true; subs asks
// for the per-subscription top-k window entries too (global
// repartition's carried state). The reply reflects every op batch sent
// before the call, which is exactly the migration barrier: once the
// coordinator has forwarded all pre-flip traffic, an extraction round
// cannot miss any of it. The returned share carries the worker's state
// epoch and, on a removing extraction, the top-k retraction deltas for
// the departed subscriptions.
func (w *WorkerClient) ExtractCells(cells []CellSpec, remove, subs bool) (CellShare, error) {
	r, _, err := roundTrip(&w.hop, &w.ctrlMu, w.shares, func(r CellShare) uint64 { return r.Seq },
		func(seq uint64) Frame { return ExtractCells{Seq: seq, Cells: cells, Remove: remove, Subs: subs} })
	return r, err
}

// InstallCells hands the worker cell shares to index and query ids to
// delete, returning the worker's acknowledgement (top-k admission
// deltas, tagged with its state epoch) and the request's length in the
// AppendInstallCells layout (the migration's measured transfer bytes).
// Ops sent after InstallCells are matched against the installed share.
func (w *WorkerClient) InstallCells(cells []CellPayload, deletes []uint64) (InstallAck, int64, error) {
	ack, n, err := roundTrip(&w.hop, &w.ctrlMu, w.installAcks, func(r InstallAck) uint64 { return r.Seq },
		func(seq uint64) Frame { return InstallCells{Seq: seq, Cells: cells, Deletes: deletes} })
	return ack, int64(n), err
}

// AdvanceWindow runs the fenced window-expiry round: the worker first
// processes every op batch sent before the call (so no in-flight object
// can slip behind the expiry), advances its sliding windows to the
// coordinator clock now, and acknowledges with the eviction deltas
// tagged with its state epoch. Cluster-wide expiry is therefore
// consistent: every worker expires against the same clock, after the
// same traffic.
func (w *WorkerClient) AdvanceWindow(now time.Time) (AdvanceAck, error) {
	r, _, err := roundTrip(&w.hop, &w.ctrlMu, w.advances, func(r AdvanceAck) uint64 { return r.Seq },
		func(seq uint64) Frame { return AdvanceWindow{Seq: seq, Now: now} })
	return r, err
}

// Close tears the session down, unblocking every pending call —
// including a read loop parked on the match channel of a departed
// consumer.
func (w *WorkerClient) Close() error {
	w.closeOnce.Do(func() { close(w.closed) })
	return w.close()
}

// MergerClient is the coordinator's half of a hop to a remote merger
// node: it forwards match batches and polls delivery counters. Match
// batches are pre-encoded and pipelined through the hop's writer, and
// the stats requests queue behind them, so per-connection FIFO — which
// the counter semantics rely on — is preserved.
type MergerClient struct {
	hop
	replies chan StatsReply
	statsMu sync.Mutex
}

// DialMerger connects to a merger node with backoff and performs the
// handshake.
func DialMerger(addr string, hello Hello, b Backoff) (*MergerClient, error) {
	conn, err := handshake(addr, hello, b, RoleMerger)
	if err != nil {
		return nil, err
	}
	m := &MergerClient{
		hop:     hop{conn: conn, writer: NewFrameWriter(conn, 0), readDone: make(chan struct{})},
		replies: make(chan StatsReply, 4),
	}
	go m.readLoop()
	return m, nil
}

func (m *MergerClient) readLoop() {
	defer close(m.readDone)
	for {
		typ, payload, err := m.conn.Recv()
		if err != nil {
			if err != io.EOF {
				m.readErr = err
			}
			return
		}
		switch typ {
		case TypeStatsReply:
			if err := parkReply(m.replies, DecodeBinStatsReply, payload); err != nil {
				m.readErr = err
				return
			}
		case TypeGoodbye:
			return
		}
	}
}

// SendMatches queues one match batch on the writer — encoded here (so
// the caller may reuse b.Matches once it returns), written and flushed
// by the writer goroutine.
func (m *MergerClient) SendMatches(b MatchBatch) error {
	buf := GetBuf()
	buf.B = AppendMatchBatch(buf.B, b.Matches)
	return m.writer.Send(TypeMatchBatch, buf)
}

// Counts polls the merger's cumulative delivered/duplicate counters.
// The request queues behind every pending match batch on the writer, so
// the reply covers every batch sent before the call.
func (m *MergerClient) Counts() (delivered, duplicates int64, err error) {
	sr, _, err := roundTrip(&m.hop, &m.statsMu, m.replies, func(r StatsReply) uint64 { return r.Seq },
		func(seq uint64) Frame { return StatsReq{Seq: seq} })
	return sr.Delivered, sr.Duplicates, err
}

// Close tears the connection down.
func (m *MergerClient) Close() error { return m.close() }

// Done reports a channel closed when the client's read loop ends (the
// peer closed or failed); Err returns the failure, nil on clean EOF.
func (m *MergerClient) Done() <-chan struct{} { return m.readDone }

// Err reports the read loop's terminal error (nil until Done, and nil
// after a clean EOF).
func (m *MergerClient) Err() error { return m.readErr }

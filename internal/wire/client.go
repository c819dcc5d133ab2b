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

// MaxStreams caps the data connections per worker hop; beyond this the
// per-connection overhead outweighs the parallelism.
const MaxStreams = 16

// WorkerClient is the coordinator's half of a dispatcher→worker hop: it
// streams operation batches to a remote worker node and receives the
// worker's match batches and control acknowledgements.
//
// The hop is a multi-stream session: one control connection (handshake,
// drains, stats, migration, fences, heartbeats) plus Streams data
// connections, each with a dedicated writer goroutine so encode and
// socket I/O pipeline instead of blocking the sender. Op batches
// round-robin whole across the data connections, each stamped with its
// position in the session's send order; the node reassembles them into
// exactly that order before processing, so the worker observes the same
// total op order an in-process channel would deliver.
//
// Safe for one sender goroutine (SendOps), one receiver goroutine
// (RecvMatches) and concurrent control callers (Drain, Stats, ...).
type WorkerClient struct {
	conn *Conn   // control connection
	data []*Conn // data connections, one per granted stream
	// writers pipeline pre-encoded frames onto the data connections.
	writers []*FrameWriter
	// addr is the address this client dialled — recovery keeps it to
	// redial the same node after a crash (see Addr()).
	addr string
	// hello is the handshake this client opened the connection with —
	// the geometry the peer pinned its index to (see Hello()).
	hello Hello
	// matches buffers decoded match batches between the data loops and
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
	// CellStats, ExtractCells, InstallCells); Drain keeps its own mutex
	// and reply channel so a Flush barrier can interleave with an
	// adjustment in flight.
	ctrlMu sync.Mutex
	seq    atomic.Uint64

	// sendMu serialises SendOps' batch numbering (sends are normally
	// single-goroutine; the lock makes replay hand-offs safe too).
	sendMu sync.Mutex
	// batchSeq numbers op batches in send order (guarded by sendMu); the
	// node reassembles concurrently-arriving batches back into this
	// order, so multi-stream transport preserves the total op order.
	batchSeq uint64
	// sentOps counts ops handed to the session — the count the control
	// rounds' Ops barrier fields carry, since FIFO does not span the
	// session's connections.
	sentOps atomic.Int64
	// recvd counts match envelopes received this session; Drain waits
	// for it to reach the ack's Emitted, so matches arrive before the
	// ack although they travel on other connections.
	recvd atomic.Int64
	// recvdDeltas counts top-k window deltas received in spontaneous
	// WindowDeltaBatch frames (not the ack-carried deltas of control
	// rounds, which arrive synchronously); Drain waits for it to reach
	// the ack's Deltas so a drain barrier also covers the delta stream.
	recvdDeltas atomic.Int64

	readDone chan struct{}
	readErr  error // valid after readDone closes

	// failMu/failErr record the first data-connection failure; fail()
	// tears every connection down so all loops converge on it.
	failMu  sync.Mutex
	failErr error

	// closed unblocks the read loops' channel sends when the consumer is
	// gone (Close called mid-stream, e.g. a cancelled run).
	closed    chan struct{}
	closeOnce sync.Once

	dataWG sync.WaitGroup

	goodbyeOnce sync.Once
	goodbyeErr  error
}

// DialWorker connects to a worker node with backoff, performs the
// handshake and attaches hello.Streams data connections (0 asks for
// one; capped at MaxStreams). The returned client's read loops are
// already running. When hello.HeartbeatMillis is set the control
// connection's read deadline is pinned to four heartbeat intervals, so
// a silently dead peer surfaces as ErrWorkerDown within that window.
func DialWorker(addr string, hello Hello, b Backoff) (*WorkerClient, error) {
	if hello.Streams <= 0 {
		hello.Streams = 1
	}
	if hello.Streams > MaxStreams {
		hello.Streams = MaxStreams
	}
	hello.Stream = 0
	for hello.SessionID == 0 {
		hello.SessionID = rand.Uint64()
	}
	conn, wel, err := handshake(addr, hello, b, RoleWorker)
	if err != nil {
		return nil, err
	}
	if wel.Streams < 1 || wel.Streams > hello.Streams {
		conn.Close()
		return nil, fmt.Errorf("wire: %s granted %d streams for %d requested", addr, wel.Streams, hello.Streams)
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
		conn:        conn,
		addr:        addr,
		hello:       hello,
		matches:     make(chan MatchBatch, 128),
		acks:        make(chan DrainAck, 4),
		stats:       make(chan StatsReply, 4),
		cellStats:   make(chan CellStatsReply, 4),
		shares:      make(chan CellShare, 4),
		installAcks: make(chan InstallAck, 4),
		advances:    make(chan AdvanceAck, 4),
		readDone:    make(chan struct{}),
		closed:      make(chan struct{}),
	}
	// Attach the granted data connections before any loop starts, so a
	// partial dial can tear down cleanly. An attach hello names the
	// session and the stream and nothing else: the node took the geometry
	// from the control hello.
	for i := 1; i <= wel.Streams; i++ {
		attach := Hello{Role: hello.Role, Task: hello.Task, SessionID: hello.SessionID, Stream: i}
		dc, _, err := handshake(addr, attach, b, RoleWorker)
		if err != nil {
			conn.Close()
			for _, c := range w.data {
				c.Close()
			}
			return nil, fmt.Errorf("wire: attaching stream %d/%d to %s: %w", i, wel.Streams, addr, err)
		}
		w.data = append(w.data, dc)
	}
	for _, dc := range w.data {
		w.writers = append(w.writers, NewFrameWriter(dc, 0))
	}
	go w.readLoop()
	w.dataWG.Add(len(w.data))
	for _, dc := range w.data {
		go w.dataLoop(dc)
	}
	go func() {
		w.dataWG.Wait()
		close(w.matches)
	}()
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

// Streams reports the granted data-connection count.
func (w *WorkerClient) Streams() int { return len(w.data) }

// handshake dials addr and performs the Hello/Welcome round, expecting
// the peer to identify as wantRole. Transport failures during the round
// retry under the same backoff budget as the connect itself: a crashed
// peer's port can accept a connect and reset the first write (or close
// before the welcome) while its replacement process is still binding,
// and a recovery redial must ride that window out rather than give up.
// Protocol refusals — a Goodbye or any other frame in the Welcome's
// place, wrong magic/version, wrong role — stay fatal; retrying a peer
// that answered wrongly cannot help.
func handshake(addr string, hello Hello, b Backoff, wantRole string) (*Conn, Welcome, error) {
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
				return nil, Welcome{}, fmt.Errorf("wire: handshake with %s: %w (deadline after %d attempts)", addr, lastErr, i)
			}
			if delay *= 2; delay > b.Max {
				delay = b.Max
			}
		}
		conn, err := dialOnce(ctx, addr)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, Welcome{}, fmt.Errorf("wire: dialing %s: %w (deadline after %d attempts)", addr, lastErr, i+1)
			}
			continue
		}
		wel, fatal, err := helloRound(conn, addr, hello, wantRole)
		if err == nil {
			return conn, wel, nil
		}
		conn.Close()
		lastErr = err
		if fatal {
			return nil, Welcome{}, err
		}
		if ctx.Err() != nil {
			return nil, Welcome{}, fmt.Errorf("wire: handshake with %s: %w (deadline after %d attempts)", addr, lastErr, i+1)
		}
	}
	return nil, Welcome{}, fmt.Errorf("wire: handshake with %s: %w (after %d attempts)", addr, lastErr, b.Attempts)
}

// helloRound performs one Hello/Welcome exchange on an established
// connection. fatal=false marks transport failures the dial loop should
// retry; fatal=true marks protocol refusals. The connection is the
// caller's to close on error.
func helloRound(conn *Conn, addr string, hello Hello, wantRole string) (wel Welcome, fatal bool, err error) {
	if err := conn.Send(hello); err != nil {
		return Welcome{}, false, fmt.Errorf("wire: sending hello to %s: %w", addr, err)
	}
	typ, payload, err := conn.RecvTimeout(DefaultHandshakeTimeout)
	if err != nil {
		return Welcome{}, false, fmt.Errorf("wire: awaiting welcome from %s: %w", addr, err)
	}
	if typ != TypeWelcome {
		return Welcome{}, true, fmt.Errorf("wire: %s answered hello with frame type %d", addr, typ)
	}
	if wel, err = DecodeBinWelcome(payload); err != nil {
		return Welcome{}, true, err
	}
	if wel.Role != wantRole {
		return Welcome{}, true, fmt.Errorf("wire: %s identifies as %q, want %q", addr, wel.Role, wantRole)
	}
	return wel, false, nil
}

// fail records the session's first failure and tears every connection
// down, so all read loops converge on it.
func (w *WorkerClient) fail(err error) {
	w.failMu.Lock()
	if w.failErr == nil {
		w.failErr = err
	}
	w.failMu.Unlock()
	w.conn.Close()
	for _, c := range w.data {
		c.Close()
	}
}

func (w *WorkerClient) sessionErr() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failErr
}

// classifyReadErr turns a read-loop error into the session's terminal
// error, preferring an already-recorded data-connection failure over the
// teardown noise it causes elsewhere.
func (w *WorkerClient) classifyReadErr(err error, sawGoodbye bool) error {
	if ferr := w.sessionErr(); ferr != nil {
		return ferr
	}
	if err == io.EOF {
		if sawGoodbye {
			return nil
		}
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

// readLoop serves the control connection: the replies of the control
// rounds and the worker's heartbeats.
func (w *WorkerClient) readLoop() {
	defer close(w.readDone)
	sawGoodbye := false
	for {
		typ, payload, err := w.conn.Recv()
		if err != nil {
			w.readErr = w.classifyReadErr(err, sawGoodbye)
			if w.readErr != nil {
				// Data connections of a failed session are dead weight;
				// tear them down so their loops end too.
				w.fail(w.readErr)
			}
			return
		}
		switch typ {
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
			sawGoodbye = true
			return
		default:
			// Unknown control frames are skipped: frames are
			// self-delimiting.
		}
		if err != nil {
			w.readErr = err
			w.fail(err)
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

// dataLoop serves one data connection: the worker's match and window
// delta batches for the ops this stream carried.
func (w *WorkerClient) dataLoop(c *Conn) {
	defer w.dataWG.Done()
	for {
		typ, payload, err := c.Recv()
		if err != nil {
			if cerr := w.classifyReadErr(err, false); cerr != nil {
				w.fail(cerr)
			}
			return
		}
		switch typ {
		case TypeMatchBatch:
			if !w.deliverMatches(payload) {
				return
			}
		case TypeWindowDeltaBatch:
			if !w.deliverDeltas(payload) {
				return
			}
		case TypePing:
		case TypeGoodbye:
			return
		}
	}
}

// deliverMatches decodes one match batch and hands it to the consumer,
// reporting false when the loop should stop.
func (w *WorkerClient) deliverMatches(payload []byte) bool {
	var mb MatchBatch
	var err error
	if mb.Matches, err = DecodeBinMatchBatch(payload, nil); err != nil {
		w.fail(err)
		return false
	}
	w.recvd.Add(int64(len(mb.Matches)))
	select {
	case w.matches <- mb:
		return true
	case <-w.closed:
		// The consumer is gone (Close mid-stream, e.g. a cancelled
		// run): stop rather than block forever on the full channel.
		return false
	}
}

// SetDeltaHandler installs the consumer for the worker's spontaneous
// top-k window delta batches. The handler runs on the data loops —
// once per frame, possibly concurrently across data connections — with
// the worker's state epoch so the consumer can fence out replayed or
// pre-crash deltas. Deltas that arrive with no handler installed still
// count toward the drain barrier but are otherwise discarded, so the
// handler must be installed before top-k traffic flows.
func (w *WorkerClient) SetDeltaHandler(h func(epoch uint64, ds []window.Delta)) {
	w.dhMu.Lock()
	w.deltaHandler = h
	w.dhMu.Unlock()
}

// deliverDeltas decodes one spontaneous window delta batch, hands it to
// the delta handler, and counts it toward the drain barrier — in that
// order, so a Drain that observed the count knows the deltas were
// already applied.
func (w *WorkerClient) deliverDeltas(payload []byte) bool {
	ds, epoch, err := DecodeBinWindowDeltaBatch(payload, nil)
	if err != nil {
		w.fail(err)
		return false
	}
	w.dhMu.Lock()
	h := w.deltaHandler
	w.dhMu.Unlock()
	if h != nil {
		h(epoch, ds)
	}
	w.recvdDeltas.Add(int64(len(ds)))
	return true
}

// SendOps transfers one operation batch. The whole batch is stamped with its send-order sequence number and queued
// round-robin on one data connection's writer (encode here, socket I/O
// on the writer goroutine); the node reassembles batches by sequence
// before processing, so the worker observes the exact total order this
// client sent — splitting a batch, or routing by key, could reorder a
// query insert against a later object and change the match set. A send
// failure wraps ErrWorkerDown: a broken write pipe means the peer (or
// the path to it) is gone.
func (w *WorkerClient) SendOps(b OpBatch) error {
	if len(b.Ops) == 0 {
		return nil
	}
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	seq := w.batchSeq
	w.batchSeq++
	buf := GetBuf()
	buf.B = AppendOpBatch(buf.B, seq, b.Ops)
	if err := w.writers[seq%uint64(len(w.data))].Send(TypeOpBatch, buf); err != nil {
		return fmt.Errorf("%w: sending ops: %v", ErrWorkerDown, err)
	}
	w.sentOps.Add(int64(len(b.Ops)))
	return nil
}

// RecvMatches blocks for the worker's next match batch. It returns
// io.EOF after the worker's side of the stream ends cleanly, or the
// connection's failure otherwise.
func (w *WorkerClient) RecvMatches() (MatchBatch, error) {
	mb, ok := <-w.matches
	if !ok {
		if err := w.sessionErr(); err != nil {
			return MatchBatch{}, err
		}
		return MatchBatch{}, io.EOF
	}
	return mb, nil
}

// Drain runs the end-to-end drain barrier round: every operation batch
// sent before the call is processed by the worker before the returned
// acknowledgement, whose Emitted field is the worker's cumulative
// emitted-match count — and every match counted in it has already been
// received by this client (queued for RecvMatches).
func (w *WorkerClient) Drain() (DrainAck, error) {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	drainStale(w.acks)
	seq := w.seq.Add(1)
	if err := w.conn.Send(Drain{Seq: seq, Ops: w.sentOps.Load()}); err != nil {
		return DrainAck{}, err
	}
	timer := time.NewTimer(DefaultControlTimeout)
	defer timer.Stop()
	for {
		select {
		case ack := <-w.acks:
			if ack.Seq == seq {
				if err := w.awaitReceived(ack.Emitted, ack.Deltas, timer); err != nil {
					return DrainAck{}, err
				}
				return ack, nil
			}
			// A stale ack from an abandoned round; keep waiting.
		case <-w.readDone:
			if w.readErr != nil {
				return DrainAck{}, w.readErr
			}
			return DrainAck{}, ErrClosed
		case <-timer.C:
			return DrainAck{}, fmt.Errorf("wire: drain barrier timed out after %v", DefaultControlTimeout)
		}
	}
}

// awaitReceived waits for the session's received-match and
// received-delta counts to reach the ack's emitted totals.
func (w *WorkerClient) awaitReceived(emitted, deltas int64, timer *time.Timer) error {
	for w.recvd.Load() < emitted || w.recvdDeltas.Load() < deltas {
		select {
		case <-w.readDone:
			if w.readErr != nil {
				return w.readErr
			}
			return ErrClosed
		case <-timer.C:
			return fmt.Errorf("wire: drain barrier timed out awaiting matches after %v", DefaultControlTimeout)
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// SendFence forwards a routing-epoch advance (informational).
func (w *WorkerClient) SendFence(epoch uint64) error {
	return w.conn.Send(Fence{Epoch: epoch})
}

// ResetWindow starts a fresh per-cell load window on the worker
// (fire-and-forget; control-connection FIFO covers the next CellStats
// call).
func (w *WorkerClient) ResetWindow() error {
	return w.conn.Send(ResetWindow{})
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

// awaitReply waits for the seq-matched reply on ch, failing on read-loop
// termination or the control timeout. Stale replies from abandoned
// rounds are skipped.
func awaitReply[T any](w *WorkerClient, ch <-chan T, seqOf func(T) uint64, seq uint64) (T, error) {
	var zero T
	timer := time.NewTimer(DefaultControlTimeout)
	defer timer.Stop()
	for {
		select {
		case r := <-ch:
			if seqOf(r) == seq {
				return r, nil
			}
		case <-w.readDone:
			if w.readErr != nil {
				return zero, w.readErr
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
// every op batch sent before the call (the Ops barrier).
func (w *WorkerClient) Stats() (StatsReply, error) {
	w.ctrlMu.Lock()
	defer w.ctrlMu.Unlock()
	drainStale(w.stats)
	seq := w.seq.Add(1)
	if err := w.conn.Send(StatsReq{Seq: seq, Ops: w.sentOps.Load()}); err != nil {
		return StatsReply{}, err
	}
	return awaitReply(w, w.stats, func(r StatsReply) uint64 { return r.Seq }, seq)
}

// CellStats fetches the worker's per-cell planner statistics (Phase
// I/II migration input).
func (w *WorkerClient) CellStats() ([]CellStat, error) {
	w.ctrlMu.Lock()
	defer w.ctrlMu.Unlock()
	drainStale(w.cellStats)
	seq := w.seq.Add(1)
	if err := w.conn.Send(CellStatsReq{Seq: seq, Ops: w.sentOps.Load()}); err != nil {
		return nil, err
	}
	r, err := awaitReply(w, w.cellStats, func(r CellStatsReply) uint64 { return r.Seq }, seq)
	if err != nil {
		return nil, err
	}
	return r.Cells, nil
}

// ExtractCells fetches the named cell shares — copied with remove
// false, extracted from the peer's index with remove true; subs asks
// for the per-subscription top-k window entries too (global
// repartition's carried state). The reply reflects every op batch sent
// before the call (the Ops barrier), which is exactly the migration
// barrier: once
// the coordinator has forwarded all pre-flip traffic, an extraction
// round cannot miss any of it. The returned share carries the worker's
// state epoch and, on a removing extraction, the top-k retraction
// deltas for the departed subscriptions.
func (w *WorkerClient) ExtractCells(cells []CellSpec, remove, subs bool) (CellShare, error) {
	w.ctrlMu.Lock()
	defer w.ctrlMu.Unlock()
	drainStale(w.shares)
	seq := w.seq.Add(1)
	req := ExtractCells{Seq: seq, Cells: cells, Remove: remove, Ops: w.sentOps.Load(), Subs: subs}
	if err := w.conn.Send(req); err != nil {
		return CellShare{}, err
	}
	return awaitReply(w, w.shares, func(r CellShare) uint64 { return r.Seq }, seq)
}

// InstallCells hands the worker cell shares to index and query ids to
// delete, returning the worker's acknowledgement (top-k admission
// deltas, tagged with its state epoch) and the request's length in the
// AppendInstallCells layout (the migration's measured transfer bytes).
// Ops sent after InstallCells returns are matched against the installed
// share.
func (w *WorkerClient) InstallCells(cells []CellPayload, deletes []uint64) (InstallAck, int64, error) {
	w.ctrlMu.Lock()
	defer w.ctrlMu.Unlock()
	drainStale(w.installAcks)
	seq := w.seq.Add(1)
	buf := GetBuf()
	buf.B = AppendInstallCells(buf.B, InstallCells{Seq: seq, Cells: cells, Deletes: deletes})
	nbytes := int64(len(buf.B))
	err := w.conn.SendPayload(TypeInstallCells, buf.B)
	PutBuf(buf)
	if err != nil {
		return InstallAck{}, 0, err
	}
	ack, err := awaitReply(w, w.installAcks, func(r InstallAck) uint64 { return r.Seq }, seq)
	return ack, nbytes, err
}

// AdvanceWindow runs the fenced window-expiry round: the worker first
// processes every op batch sent before the call (the Ops barrier — so
// no in-flight object can slip behind the expiry), advances its sliding
// windows to the coordinator clock now, and acknowledges with the
// eviction deltas tagged with its state epoch. Cluster-wide expiry is
// therefore consistent: every worker expires against the same clock,
// after the same traffic.
func (w *WorkerClient) AdvanceWindow(now time.Time) (AdvanceAck, error) {
	w.ctrlMu.Lock()
	defer w.ctrlMu.Unlock()
	drainStale(w.advances)
	seq := w.seq.Add(1)
	if err := w.conn.Send(AdvanceWindow{Seq: seq, Ops: w.sentOps.Load(), Now: now}); err != nil {
		return AdvanceAck{}, err
	}
	return awaitReply(w, w.advances, func(r AdvanceAck) uint64 { return r.Seq }, seq)
}

// CloseSend ends the coordinator's half of the stream: pending op frames
// are flushed, each data connection says Goodbye (the worker flushes its
// remaining matches and answers in kind, which surfaces as io.EOF from
// RecvMatches), and the control connection closes the session.
func (w *WorkerClient) CloseSend() error {
	w.goodbyeOnce.Do(func() {
		for _, fw := range w.writers {
			if err := fw.Drain(); err != nil && w.goodbyeErr == nil {
				w.goodbyeErr = err
			}
		}
		for _, c := range w.data {
			if err := c.Send(Goodbye{}); err != nil && w.goodbyeErr == nil {
				w.goodbyeErr = err
			}
		}
		if err := w.conn.Send(Goodbye{}); err != nil && w.goodbyeErr == nil {
			w.goodbyeErr = err
		}
	})
	return w.goodbyeErr
}

// Close tears the session down, unblocking every pending call —
// including a read loop parked on the match channel of a departed
// consumer.
func (w *WorkerClient) Close() error {
	w.closeOnce.Do(func() { close(w.closed) })
	err := w.conn.Close()
	for _, c := range w.data {
		c.Close()
	}
	for _, fw := range w.writers {
		fw.Stop()
	}
	return err
}

// MergerClient is the coordinator's half of a hop to a remote merger
// node: it forwards match batches and polls delivery counters. Match
// batches are pre-encoded and pipelined through a writer goroutine; control frames queue through the same
// writer, so per-connection FIFO — which the counter semantics rely on
// — is preserved.
type MergerClient struct {
	conn    *Conn
	writer  *FrameWriter
	replies chan StatsReply

	statsMu sync.Mutex
	seq     atomic.Uint64

	readDone chan struct{}
	readErr  error

	goodbyeOnce sync.Once
	goodbyeErr  error
}

// DialMerger connects to a merger node with backoff and performs the
// handshake.
func DialMerger(addr string, hello Hello, b Backoff) (*MergerClient, error) {
	hello.Stream = 0
	conn, _, err := handshake(addr, hello, b, RoleMerger)
	if err != nil {
		return nil, err
	}
	m := &MergerClient{
		conn:     conn,
		writer:   NewFrameWriter(conn, 0),
		replies:  make(chan StatsReply, 4),
		readDone: make(chan struct{}),
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
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	drainStale(m.replies)
	seq := m.seq.Add(1)
	buf := GetBuf()
	buf.B = AppendStatsReq(buf.B, StatsReq{Seq: seq})
	if err := m.writer.Send(TypeStatsReq, buf); err != nil {
		return 0, 0, err
	}
	timer := time.NewTimer(DefaultControlTimeout)
	defer timer.Stop()
	for {
		select {
		case sr := <-m.replies:
			if sr.Seq == seq {
				return sr.Delivered, sr.Duplicates, nil
			}
		case <-m.readDone:
			if m.readErr != nil {
				return 0, 0, m.readErr
			}
			return 0, 0, ErrClosed
		case <-timer.C:
			return 0, 0, fmt.Errorf("wire: stats round timed out after %v", DefaultControlTimeout)
		}
	}
}

// CloseSend ends the coordinator's half of the stream, after flushing
// every queued match batch.
func (m *MergerClient) CloseSend() error {
	m.goodbyeOnce.Do(func() {
		if err := m.writer.Drain(); err != nil {
			m.goodbyeErr = err
			return
		}
		m.goodbyeErr = m.conn.Send(Goodbye{})
	})
	return m.goodbyeErr
}

// Close tears the connection down.
func (m *MergerClient) Close() error {
	err := m.conn.Close()
	m.writer.Stop()
	return err
}

// Done reports a channel closed when the client's read loop ends (the
// peer closed or failed); Err returns the failure, nil on clean EOF.
func (m *MergerClient) Done() <-chan struct{} { return m.readDone }

// Err reports the read loop's terminal error (nil until Done, and nil
// after a clean EOF).
func (m *MergerClient) Err() error { return m.readErr }

package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
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

// WorkerClient is the coordinator's half of a dispatcher→worker hop: one
// ordered stream down (op batches, Drain markers, control requests) and
// one up (matches, window deltas, marker acks, control replies).
//
// The hop is one connection: op batches and every control frame queue in
// call order on one FrameWriter (encode here, socket I/O on the writer
// goroutine), and one read loop serves the node's answers, which come in
// arrival order. FIFO is therefore the barrier — a control reply follows
// the matches and deltas of every op batch sent before its request, and
// the worker observes the same total op order an in-process channel
// would deliver. RecvMatches hands the up stream on in that order; the
// caller matches each reply to its request.
//
// Safe for one sender goroutine (SendOps, SendDrain, SendControl), one
// receiver goroutine (RecvMatches) and concurrent Drain round trips.
type WorkerClient struct {
	conn     *Conn
	writer   *FrameWriter
	readDone chan struct{}
	readErr  error // valid after readDone closes

	// addr is the address this client dialled — recovery keeps it to
	// redial the same node after a crash (see Addr()).
	addr string
	// hello is the handshake this client opened the connection with —
	// the geometry the peer pinned its index to (see Hello()).
	hello Hello
	// matches buffers the decoded up stream between the read loop and
	// RecvMatches; bounded so a slow consumer backpressures the wire.
	matches chan MatchBatch
	// acks parks the DrainAcks of Drain round trips, serialised by
	// drainMu; drainSeq numbers them.
	acks     chan DrainAck
	drainMu  sync.Mutex
	drainSeq uint64

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

	// goodbyeOnce makes CloseSend idempotent; goodbyeErr is its outcome.
	goodbyeOnce sync.Once
	goodbyeErr  error
}

// DialWorker connects to a worker node with backoff and performs the
// handshake. The returned client's read loop is already running. When
// hello.HeartbeatMillis is set the connection's read deadline is pinned
// to four heartbeat intervals, so a silently dead peer surfaces as
// ErrWorkerDown within that window.
func DialWorker(addr string, hello Hello, b Backoff) (*WorkerClient, error) {
	conn, err := handshake(addr, hello, b)
	if err != nil {
		return nil, err
	}
	if hello.HeartbeatMillis > 0 {
		conn.ReadTimeout = 4 * time.Duration(hello.HeartbeatMillis) * time.Millisecond
	}
	// The ack channel gets headroom beyond the single round in flight: a
	// late ack from a timed-out round can land between a new round's
	// drainStale and its own ack, and with capacity 1 the read loop's
	// non-blocking send would drop the *genuine* ack behind it.
	// awaitReply skips stale seqs, so extra buffered acks are benign.
	w := &WorkerClient{
		conn:     conn,
		writer:   NewFrameWriter(conn, 0),
		readDone: make(chan struct{}),
		addr:     addr,
		hello:    hello,
		matches:  make(chan MatchBatch, 128),
		acks:     make(chan DrainAck, 4),
		closed:   make(chan struct{}),
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
// the peer to identify as a worker. Transport failures during the round
// retry under the same backoff budget as the connect itself: a crashed
// peer's port can accept a connect and reset the first write (or close
// before the welcome) while its replacement process is still binding,
// and a recovery redial must ride that window out rather than give up.
// Protocol refusals — a Goodbye or any other frame in the Welcome's
// place, wrong magic/version, wrong role — stay fatal; retrying a peer
// that answered wrongly cannot help.
func handshake(addr string, hello Hello, b Backoff) (*Conn, error) {
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
		fatal, err := helloRound(conn, addr, hello)
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
func helloRound(conn *Conn, addr string, hello Hello) (fatal bool, err error) {
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
	if wel.Role != RoleWorker {
		return true, fmt.Errorf("wire: %s identifies as %q, want %q", addr, wel.Role, RoleWorker)
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
// delta batches, marker acks and control replies go to RecvMatches in
// the order they arrived, a Drain round trip's ack is parked for it, and
// heartbeats and the closing Goodbye end here.
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
		var mb MatchBatch
		switch typ {
		case TypeMatchBatch:
			mb.Matches, err = DecodeBinMatchBatch(payload, nil)
		case TypeWindowDeltaBatch:
			mb.Deltas, mb.Epoch, err = DecodeBinWindowDeltaBatch(payload, nil)
		case TypeDrainAck:
			var ack DrainAck
			if ack, err = DecodeBinDrainAck(payload); err == nil && ack.Seq != 0 {
				select { // a round trip's; one nobody has room for is dropped
				case w.acks <- ack:
				default:
				}
				continue
			}
			mb.Drained = true // a SendDrain's (Seq 0)
		case TypeInstallCells:
			// A page of the cell share that answers an ExtractCells, kept
			// encoded until it is used.
			mb.Reply, err = DecodeBinPage(payload)
		case TypePing:
			// Liveness beacon; receiving it already reset the read
			// deadline, nothing else to do.
			continue
		case TypeGoodbye:
			return
		default:
			// A control reply; unknown frames are skipped (frames are
			// self-delimiting).
			if mb.Reply, err = DecodeControl(typ, payload); err == nil && mb.Reply == nil {
				continue
			}
		}
		if err == nil {
			err = w.deliver(mb)
		}
		if err != nil {
			w.readErr = err
			w.conn.Close()
			return
		}
	}
}

// deliver queues mb for RecvMatches.
func (w *WorkerClient) deliver(mb MatchBatch) error {
	select {
	case w.matches <- mb:
		return nil
	case <-w.closed:
		// The consumer is gone (Close mid-stream, e.g. a cancelled
		// run): stop rather than block forever on the full channel.
		return ErrClosed
	}
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

// RecvMatches blocks for the next item of the worker's up stream: a
// match batch, a window delta batch, the Drained batch that answers a
// SendDrain, or the reply to a SendControl. It returns io.EOF after the
// worker's side of the stream ends cleanly, or the connection's failure
// otherwise.
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

// Drain runs one drain round trip: every operation batch sent before the
// call is processed by the worker before the returned acknowledgement,
// whose Emitted field is the worker's emitted-match count for this
// connection. The ack follows those matches on the wire, so every match
// it counts is already queued for RecvMatches. The coordinator waits on
// rounds in the stream instead; this round trip serves a bare client
// (the benchmark's node probe).
func (w *WorkerClient) Drain() (DrainAck, error) {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	w.drainStale()
	w.drainSeq++
	if err := w.writer.SendFrame(Drain{Seq: w.drainSeq}); err != nil {
		return DrainAck{}, err
	}
	return w.awaitReply(w.drainSeq)
}

// SendDrain queues a Drain frame behind every op batch sent before it and
// returns without waiting: its DrainAck comes back through RecvMatches,
// as a Drained batch after the matches of those ops.
func (w *WorkerClient) SendDrain() error {
	return w.writer.SendFrame(Drain{})
}

// SendControl queues a control request behind every frame sent before it
// and returns without waiting. A request that is answered (every kind
// but ResetWindow) gets its reply through RecvMatches, after
// the matches and deltas of the ops sent before it.
func (w *WorkerClient) SendControl(f Frame) error {
	return w.writer.SendFrame(f)
}

// drainStale empties the ack channel of any ack left over from an
// abandoned (timed-out) round. Without this, a late stale ack parked in
// the channel could make the read loop's non-blocking send drop the
// *next* round's ack — turning one timeout into a cascade of timeouts on
// a healthy connection. The caller holds drainMu.
func (w *WorkerClient) drainStale() {
	for {
		select {
		case <-w.acks:
		default:
			return
		}
	}
}

// awaitReply waits for the ack with seq, failing on read-loop
// termination or the control timeout. Stale acks from abandoned rounds
// are skipped.
func (w *WorkerClient) awaitReply(seq uint64) (DrainAck, error) {
	timer := time.NewTimer(DefaultControlTimeout)
	defer timer.Stop()
	for {
		select {
		case r := <-w.acks:
			if r.Seq == seq {
				return r, nil
			}
		case <-w.readDone:
			if w.readErr != nil {
				return DrainAck{}, w.readErr
			}
			return DrainAck{}, ErrClosed
		case <-timer.C:
			return DrainAck{}, fmt.Errorf("wire: control round timed out after %v", DefaultControlTimeout)
		}
	}
}

// CloseSend ends the coordinator's half of the stream: pending frames
// are flushed and the connection says Goodbye. The node answers in kind
// once it has flushed its own output, which surfaces as io.EOF from
// RecvMatches.
func (w *WorkerClient) CloseSend() error {
	w.goodbyeOnce.Do(func() {
		if err := w.writer.Drain(); err != nil {
			w.goodbyeErr = err
			return
		}
		w.goodbyeErr = w.conn.Send(Goodbye{})
	})
	return w.goodbyeErr
}

// Close tears the session down, unblocking every pending call —
// including a read loop parked on the match channel of a departed
// consumer.
func (w *WorkerClient) Close() error {
	w.closeOnce.Do(func() { close(w.closed) })
	err := w.conn.Close()
	w.writer.Stop()
	return err
}

// Package node implements the peer side of a multi-process PS2Stream
// deployment: the serve loops behind cmd/psnode. A worker node owns one
// worker task's query index and matches the operation stream a remote
// coordinator sends it; a merger node deduplicates and delivers the
// match stream. Both speak the internal/wire protocol; the coordinator
// side lives in internal/core (remote task placement) and the
// stand-alone binary in cmd/psnode.
//
// The paper's deployment (§VI) runs these roles as Storm tasks on a
// cluster; node is the repro's process-level equivalent. State lives in
// the node across connections, so a coordinator reconnecting after a
// network blip finds its standing queries intact.
package node

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ps2stream/internal/gi2"
	"ps2stream/internal/textutil"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
	"ps2stream/internal/worker"
)

// Logf is the logging hook signature; nil loggers are silent.
type Logf func(format string, args ...any)

func (f Logf) printf(format string, args ...any) {
	if f != nil {
		f(format, args...)
	}
}

// WorkerOptions configures ServeWorker.
type WorkerOptions struct {
	// Log receives serve-loop events; nil is silent.
	Log Logf
	// Once exits after the first coordinator session ends cleanly
	// (Goodbye), instead of awaiting a reconnect. Deployment scripts and
	// CI use it for run-to-completion clusters.
	Once bool
}

// workerSession is one coordinator session: the control connection that
// created it plus the data connections attached to its SessionID. The
// done/emitted counters implement the session op barrier
// (wire.Drain.Ops), since FIFO does not span the connections.
type workerSession struct {
	id      uint64
	streams int

	// done counts ops fully processed — each data loop adds a batch's
	// ops only after the batch's matches are queued on its writer, so
	// "done ≥ barrier, then flush writers" guarantees the matches of
	// every counted op are on the wire before a barrier ack.
	done atomic.Int64
	// emitted counts matches queued toward the coordinator.
	emitted atomic.Int64
	// deltas counts window deltas queued toward the coordinator
	// (WindowDeltaBatch frames), counted before done like emitted so a
	// drain ack's Deltas total is final once the barrier is reached.
	deltas atomic.Int64

	// The turnstile reassembles the coordinator's send order: op batches
	// carry their send-order sequence and round-robin across the data
	// connections, and each data loop waits for its batch's turn before
	// processing. Decode and match encode/write stay parallel per
	// stream; only processing — already serialised by the index lock —
	// is ordered, so multi-stream transport preserves the exact total op
	// order a single connection would deliver (and with it the match
	// set: a query insert must index before a later object publishes).
	turnMu   sync.Mutex
	turnCond *sync.Cond
	nextTurn uint64 // next batch sequence to process (guarded by turnMu)
	turnDead bool   // set by close() to wake and fail waiters

	mu      sync.Mutex
	closed  bool
	conns   []*wire.Conn
	writers []*wire.FrameWriter
	dataWG  sync.WaitGroup
}

// newWorkerSession builds a session with its turnstile initialised.
func newWorkerSession(id uint64, streams int) *workerSession {
	s := &workerSession{id: id, streams: streams}
	s.turnCond = sync.NewCond(&s.turnMu)
	return s
}

// awaitTurn blocks until batch seq is next in the session's send order.
// It fails instead of blocking forever when the session is torn down
// (a sibling stream broke, or a newer session superseded this one).
func (s *workerSession) awaitTurn(seq uint64) error {
	s.turnMu.Lock()
	defer s.turnMu.Unlock()
	for s.nextTurn != seq {
		if s.turnDead {
			return fmt.Errorf("node: session %d closed awaiting batch %d (next %d)", s.id, seq, s.nextTurn)
		}
		s.turnCond.Wait()
	}
	return nil
}

// finishTurn hands the turnstile to the next batch in send order.
func (s *workerSession) finishTurn() {
	s.turnMu.Lock()
	s.nextTurn++
	s.turnMu.Unlock()
	s.turnCond.Broadcast()
}

// attach registers a data connection with the session; the caller must
// call dataWG.Done when its loop exits.
func (s *workerSession) attach(c *wire.Conn, fw *wire.FrameWriter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("node: session %d already closed", s.id)
	}
	if len(s.conns) >= s.streams {
		return fmt.Errorf("node: session %d already has %d data connections", s.id, s.streams)
	}
	s.conns = append(s.conns, c)
	s.writers = append(s.writers, fw)
	s.dataWG.Add(1)
	return nil
}

// close tears the session's data connections down. Idempotent; called on
// control-session end and on supersession by a newer session.
func (s *workerSession) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := append([]*wire.Conn(nil), s.conns...)
	s.mu.Unlock()
	// Wake turnstile waiters: their predecessor batch may never arrive
	// now, and blocking forever would wedge the data loops.
	s.turnMu.Lock()
	s.turnDead = true
	s.turnMu.Unlock()
	s.turnCond.Broadcast()
	for _, c := range conns {
		c.Close()
	}
}

func (s *workerSession) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// flushWriters blocks until every match batch queued before the call is
// written and flushed on its data connection.
func (s *workerSession) flushWriters() error {
	s.mu.Lock()
	writers := append([]*wire.FrameWriter(nil), s.writers...)
	s.mu.Unlock()
	for _, fw := range writers {
		if err := fw.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// Worker is one worker task running out-of-process: a worker.Engine
// over a GI2 index plus the wire serve loop feeding it. The node owns
// sessions, the turnstile, barriers, fencing epochs and framing; the
// engine owns the index, the window state and the matching. Create with
// NewWorker, drive with Serve.
type Worker struct {
	opts WorkerOptions

	// mu guards hello and the engine's construction and reset.
	mu sync.Mutex
	// eng is built by the first handshake (nil before it) over the
	// geometry that handshake pins, and reset in place when a recovery
	// session supersedes its state epoch.
	eng atomic.Pointer[worker.Engine]
	// geometry of the index, pinned by the first handshake.
	hello *wire.Hello

	// sess is the live session (nil before the first handshake).
	sessMu sync.Mutex
	sess   *workerSession

	done    atomic.Int64 // ops processed
	emitted atomic.Int64 // matches emitted
	epoch   atomic.Uint64
	// fence is the highest coordinator session epoch accepted so far. A
	// hello carrying a lower epoch is a stale coordinator session (the
	// coordinator bumps the epoch on every recovery redial) and is
	// refused before it can write through a superseded view.
	fence atomic.Uint64
}

// NewWorker returns an idle worker node.
func NewWorker(opts WorkerOptions) *Worker {
	return &Worker{opts: opts}
}

// Counts reports the worker's cumulative processed-op and emitted-match
// counters (tests, diagnostics).
func (w *Worker) Counts() (done, emitted int64) {
	return w.done.Load(), w.emitted.Load()
}

// Epoch reports the last routing epoch announced by the coordinator
// via a fence frame (0 until one arrives). Diagnostics only: a worker
// node does not route, so the epoch tags logs and stats, nothing more.
func (w *Worker) Epoch() uint64 { return w.epoch.Load() }

// QueryCount reports live queries held, excluding lazily-tombstoned
// deletions (tests, diagnostics).
func (w *Worker) QueryCount() int {
	return int(w.stats().Queries)
}

// stats reads the engine's counters (zeroes before the first handshake).
func (w *Worker) stats() wire.StatsReply {
	if eng := w.eng.Load(); eng != nil {
		return eng.Stats()
	}
	return wire.StatsReply{}
}

// Serve accepts coordinator connections on ln until ctx is cancelled
// (or, with Once, until a control session ends cleanly). Connections are
// served concurrently: a session is one control connection plus its data
// connections, all live at once. The index itself stays
// single-writer per batch under the worker mutex.
func (w *Worker) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	var wg sync.WaitGroup
	var mu sync.Mutex
	sawClean := false
	cleanExit := make(chan struct{}, 1)
	for {
		nc, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			select {
			case <-cleanExit:
				return nil
			default:
				return err
			}
		}
		wg.Add(1)
		go func(nc net.Conn) {
			defer wg.Done()
			clean, err := w.serveConn(wire.NewConn(nc))
			if err != nil {
				w.opts.Log.printf("worker: session from %s: %v", nc.RemoteAddr(), err)
			}
			mu.Lock()
			if clean {
				sawClean = true
			}
			exit := w.opts.Once && sawClean
			mu.Unlock()
			if exit {
				select {
				case cleanExit <- struct{}{}:
				default:
				}
				ln.Close()
			}
		}(nc)
	}
}

// geometryEqual reports whether a reconnecting coordinator presents the
// same grid geometry the index was built over.
func geometryEqual(a, b *wire.Hello) bool {
	return a.Bounds == b.Bounds && a.Granularity == b.Granularity && a.Task == b.Task
}

// serveConn dispatches one accepted connection: a data connection
// attaches to the session its Hello names, a control connection (Stream
// 0) runs a session. clean reports a Goodbye-terminated control session.
func (w *Worker) serveConn(conn *wire.Conn) (clean bool, err error) {
	defer conn.Close()
	hello, err := recvHello(conn)
	if err != nil {
		return false, err
	}
	if hello.Stream > 0 {
		return false, w.serveData(conn, hello)
	}
	return w.serveControl(conn, hello)
}

// serveControl runs one coordinator session's control connection.
func (w *Worker) serveControl(conn *wire.Conn, hello wire.Hello) (clean bool, err error) {
	if hello.Streams <= 0 || hello.SessionID == 0 {
		return false, refuse(conn, fmt.Errorf("node: control hello with %d data streams and session id %d, want both nonzero",
			hello.Streams, hello.SessionID))
	}
	// Session fencing: refuse epochs below the highest accepted one.
	// Equal epochs are allowed — a retried dial of the same session is
	// not stale. The CAS loop publishes the new high-water mark before
	// any frame of this session is processed.
	for {
		cur := w.fence.Load()
		if hello.Epoch < cur {
			return false, fmt.Errorf("node: stale session epoch %d (fenced at %d)", hello.Epoch, cur)
		}
		if hello.Epoch == cur || w.fence.CompareAndSwap(cur, hello.Epoch) {
			break
		}
	}
	w.mu.Lock()
	eng := w.eng.Load()
	switch {
	case eng == nil || hello.Epoch > eng.Epoch():
		// The first session builds the state; a higher-epoch session is a
		// recovery: the coordinator replays the authoritative op history
		// from its log, so state from the superseded session must not
		// survive into it — a replayed object would otherwise match
		// queries that were originally inserted after it.
		stats := textutil.NewStats()
		for term, n := range hello.Terms {
			stats.AddWeighted(term, n)
		}
		cfg := worker.Config{
			Task:  hello.Task,
			Epoch: hello.Epoch,
			Index: gi2.New(hello.Bounds, hello.Granularity, stats),
		}
		if eng == nil {
			eng = worker.New(cfg)
			w.eng.Store(eng)
		} else {
			w.opts.Log.printf("worker: session epoch %d supersedes state from epoch %d; resetting for replay",
				hello.Epoch, eng.Epoch())
			eng.Reset(cfg)
		}
		w.hello = &hello
		w.opts.Log.printf("worker: task %d over %v at granularity %d (%d sampled terms)",
			hello.Task, hello.Bounds, hello.Granularity, len(hello.Terms))
	case !geometryEqual(w.hello, &hello):
		w.mu.Unlock()
		return false, fmt.Errorf("node: reconnect with different geometry (task %d %v/%d, had task %d %v/%d)",
			hello.Task, hello.Bounds, hello.Granularity, w.hello.Task, w.hello.Bounds, w.hello.Granularity)
	}
	w.mu.Unlock()

	streams := min(hello.Streams, wire.MaxStreams)
	sess := newWorkerSession(hello.SessionID, streams)
	// Register before the Welcome: the coordinator attaches data
	// connections only after reading it, so the session must be findable
	// by then. A still-live previous session is superseded — its
	// coordinator is gone or reconnecting.
	w.sessMu.Lock()
	old := w.sess
	w.sess = sess
	w.sessMu.Unlock()
	if old != nil {
		old.close()
	}
	defer sess.close()
	wel := wire.Welcome{Role: wire.RoleWorker, Task: hello.Task, Streams: streams}
	if err := conn.Send(wel); err != nil {
		return false, err
	}

	// Liveness beacon: when the coordinator asked for heartbeats, a
	// sender goroutine pings at the requested cadence so the
	// coordinator's read deadline (4× this interval) only fires on a
	// genuinely dead connection, not on an idle-but-healthy one.
	// wire.Conn.Send serialises writers, so pings interleave safely with
	// the serve loop's replies.
	if hello.HeartbeatMillis > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(time.Duration(hello.HeartbeatMillis) * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if conn.Send(wire.Ping{}) != nil {
						return
					}
				}
			}
		}()
	}

	return w.controlLoop(conn, sess)
}

// controlLoop serves a session's control connection: the barrier rounds
// (drain, stats, migration) and session teardown. Op batches arrive on
// the session's data connections, so every round that must observe them
// first awaits the session op barrier its request carries.
func (w *Worker) controlLoop(conn *wire.Conn, sess *workerSession) (clean bool, err error) {
	eng := w.eng.Load()
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return false, err
		}
		switch typ {
		case wire.TypeDrain:
			d, err := wire.DecodeBinDrain(payload)
			if err != nil {
				return false, err
			}
			if err := w.awaitOps(sess, d.Ops); err != nil {
				return false, err
			}
			// The barrier counted the ops; flushing the writers puts the
			// matches those ops produced on the wire before the ack, so
			// the coordinator can wait for exactly the ack's Emitted.
			if err := sess.flushWriters(); err != nil {
				return false, err
			}
			ack := wire.DrainAck{Seq: d.Seq, Done: sess.done.Load(), Emitted: sess.emitted.Load(), Deltas: sess.deltas.Load()}
			if err := conn.Send(ack); err != nil {
				return false, err
			}
		case wire.TypeStatsReq:
			sr, err := wire.DecodeBinStatsReq(payload)
			if err != nil {
				return false, err
			}
			if err := w.awaitOps(sess, sr.Ops); err != nil {
				return false, err
			}
			if err := conn.Send(w.statsReply(sr.Seq)); err != nil {
				return false, err
			}
		case wire.TypeCellStatsReq:
			cr, err := wire.DecodeBinCellStatsReq(payload)
			if err != nil {
				return false, err
			}
			if err := w.awaitOps(sess, cr.Ops); err != nil {
				return false, err
			}
			if err := conn.Send(wire.CellStatsReply{Seq: cr.Seq, Cells: eng.CellStats()}); err != nil {
				return false, err
			}
		case wire.TypeExtractCells:
			ex, err := wire.DecodeBinExtractCells(payload)
			if err != nil {
				return false, err
			}
			// The migration barrier: the share must reflect every op
			// batch the coordinator sent before the request.
			if err := w.awaitOps(sess, ex.Ops); err != nil {
				return false, err
			}
			if err := conn.Send(eng.ExtractCells(ex)); err != nil {
				return false, err
			}
		case wire.TypeInstallCells:
			ic, err := wire.DecodeBinInstallCells(payload)
			if err != nil {
				return false, err
			}
			if err := conn.Send(eng.InstallCells(ic)); err != nil {
				return false, err
			}
		case wire.TypeAdvanceWindow:
			a, err := wire.DecodeBinAdvanceWindow(payload)
			if err != nil {
				return false, err
			}
			// Expiry observes every op batch sent before the round, the
			// same barrier a drain provides — otherwise the advance could
			// expire a window the in-flight batches are about to refill
			// under an older clock reading.
			if err := w.awaitOps(sess, a.Ops); err != nil {
				return false, err
			}
			if err := conn.Send(eng.AdvanceWindow(a)); err != nil {
				return false, err
			}
		case wire.TypeFence:
			f, err := wire.DecodeBinFence(payload)
			if err != nil {
				return false, err
			}
			w.epoch.Store(f.Epoch)
		case wire.TypeResetWindow:
			eng.ResetWindow()
		case wire.TypeGoodbye:
			// The coordinator says goodbye on the data connections first,
			// so waiting for their loops lets the final match flushes
			// finish before the session — and, with Once, the process —
			// goes away. Bounded: a data connection that already died
			// never says goodbye.
			waitTimeout(&sess.dataWG, 10*time.Second)
			_ = conn.Send(wire.Goodbye{})
			return true, nil
		default:
			w.opts.Log.printf("worker: skipping unknown frame type %d", typ)
		}
	}
}

// serveData runs one data connection of a session: op batches in, match
// and window delta batches out through a pipelined writer.
func (w *Worker) serveData(conn *wire.Conn, hello wire.Hello) error {
	w.sessMu.Lock()
	sess := w.sess
	w.sessMu.Unlock()
	if sess == nil || sess.id != hello.SessionID || hello.Stream > sess.streams {
		return refuse(conn, fmt.Errorf("node: no session %d for data stream %d", hello.SessionID, hello.Stream))
	}
	fw := wire.NewFrameWriter(conn, 0)
	defer fw.Stop()
	if err := sess.attach(conn, fw); err != nil {
		return refuse(conn, err)
	}
	defer sess.dataWG.Done()
	wel := wire.Welcome{Role: wire.RoleWorker, Task: hello.Task, Streams: sess.streams}
	if err := conn.Send(wel); err != nil {
		return err
	}
	// Decode, match, and delta scratch reused across batches; the codec
	// decodes into them without per-frame allocations.
	var ops []wire.OpEnv
	var matches []wire.MatchEnv
	var deltas []window.Delta
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			// A broken data connection breaks the whole session; tear it
			// down so the control loop and sibling streams fail too
			// instead of wedging on a barrier that can never complete.
			if !sess.isClosed() {
				sess.close()
				return err
			}
			return nil
		}
		switch typ {
		case wire.TypeOpBatch:
			var seq uint64
			ops, seq, err = wire.DecodeBinOpBatch(payload, ops[:0])
			if err != nil {
				sess.close()
				return err
			}
			// Reassemble the coordinator's send order across streams:
			// process this batch only when every earlier-sequenced batch
			// (possibly in flight on a sibling connection) is done.
			if err := sess.awaitTurn(seq); err != nil {
				return err
			}
			var epoch uint64
			matches, deltas, epoch = w.processOps(ops, matches[:0], deltas[:0])
			// Order matters for the session barrier: matches and deltas
			// are queued (and counted) before done advances, so "done ≥
			// barrier" implies both are behind a writer flush, never lost.
			sess.emitted.Add(int64(len(matches)))
			if len(matches) > 0 {
				buf := wire.GetBuf()
				buf.B = wire.AppendMatchBatch(buf.B, matches)
				if err := fw.Send(wire.TypeMatchBatch, buf); err != nil {
					sess.close()
					return err
				}
			}
			sess.deltas.Add(int64(len(deltas)))
			if len(deltas) > 0 {
				buf := wire.GetBuf()
				buf.B = wire.AppendWindowDeltaBatch(buf.B, epoch, deltas)
				if err := fw.Send(wire.TypeWindowDeltaBatch, buf); err != nil {
					sess.close()
					return err
				}
			}
			sess.done.Add(int64(len(ops)))
			sess.finishTurn()
		case wire.TypeGoodbye:
			// Flush remaining matches, answer in kind, and let the
			// coordinator's data read loop end cleanly.
			if err := fw.Drain(); err != nil {
				sess.close()
				return err
			}
			_ = conn.Send(wire.Goodbye{})
			return nil
		case wire.TypePing:
		default:
			w.opts.Log.printf("worker: skipping unknown frame type %d on data stream", typ)
		}
	}
}

// awaitOps blocks until the session has processed at least ops
// operations — the session's stand-in for FIFO request ordering. Zero
// means nothing has been sent yet.
func (w *Worker) awaitOps(sess *workerSession, ops int64) error {
	if ops <= 0 {
		return nil
	}
	deadline := time.Now().Add(wire.DefaultControlTimeout)
	for sess.done.Load() < ops {
		if sess.isClosed() {
			return fmt.Errorf("node: session closed awaiting op barrier (%d of %d)", sess.done.Load(), ops)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node: op barrier timed out (%d of %d ops)", sess.done.Load(), ops)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// statsReply assembles the worker's lifetime counters.
func (w *Worker) statsReply(seq uint64) wire.StatsReply {
	sr := w.stats()
	sr.Seq, sr.Delivered = seq, w.emitted.Load()
	return sr
}

// waitTimeout waits on wg for at most d; false reports a timeout.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

// processOps runs one operation batch through the engine and accounts it
// in the node's lifetime counters. out and dout are the caller's scratch
// (see worker.Engine.Process); epoch is the state epoch the deltas were
// produced under, so the coordinator's board can fence stale replays.
// Concurrent data streams serialise on the engine's lock, per batch.
func (w *Worker) processOps(ops []wire.OpEnv, out []wire.MatchEnv, dout []window.Delta) ([]wire.MatchEnv, []window.Delta, uint64) {
	out, dout, epoch := w.eng.Load().Process(ops, out, dout)
	w.done.Add(int64(len(ops)))
	w.emitted.Add(int64(len(out)))
	return out, dout, epoch
}

// recvHello performs the receiving half of the handshake: the Hello
// frame, validated. The caller answers with a Welcome once it has
// registered the session, so a data connection racing the Welcome finds
// it. A first frame that is not a coordinator's Hello in this tree's
// layout — a version-1 gob peer's, for one — is refused.
func recvHello(conn *wire.Conn) (wire.Hello, error) {
	typ, payload, err := conn.RecvTimeout(wire.DefaultHandshakeTimeout)
	if err != nil {
		return wire.Hello{}, fmt.Errorf("node: awaiting hello: %w", err)
	}
	if typ != wire.TypeHello {
		return wire.Hello{}, refuse(conn, fmt.Errorf("node: first frame has type %d, want hello", typ))
	}
	hello, err := wire.DecodeBinHello(payload)
	if err != nil {
		return wire.Hello{}, refuse(conn, err)
	}
	if hello.Role != wire.RoleCoordinator {
		return wire.Hello{}, refuse(conn, fmt.Errorf("node: peer role %q, want %q", hello.Role, wire.RoleCoordinator))
	}
	return hello, nil
}

// refuse answers a handshake the node will not accept with a Goodbye in
// the Welcome's place, so the dialler fails at once with a protocol
// refusal instead of burning its retry budget. It returns err for the
// caller to return: the serve loop logs it and closes the connection.
func refuse(conn *wire.Conn, err error) error {
	_ = conn.Send(wire.Goodbye{})
	return err
}

// ListenAndServeWorker is the one-call form used by cmd/psnode: listen
// on addr and serve a worker until ctx ends.
func ListenAndServeWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	opts.Log.printf("worker: listening on %s", ln.Addr())
	return NewWorker(opts).Serve(ctx, ln)
}

// Package node implements the peer side of a multi-process PS2Stream
// deployment: the serve loop behind cmd/psnode. A worker node owns one
// worker task's query index and matches the operation stream a remote
// coordinator sends it; its matches go back up the same connection, and
// the coordinator deduplicates and delivers them. The node speaks the
// internal/wire protocol; the coordinator side lives in internal/core
// (remote task placement) and the stand-alone binary in cmd/psnode.
//
// The paper's deployment (§VI) runs the workers as Storm tasks on a
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

// Worker is one worker task running out-of-process: a worker.Engine
// over a GI2 index plus the wire serve loop feeding it. The node owns
// sessions, fencing epochs and framing; the engine owns the index, the
// window state and the matching. Create with NewWorker, drive with
// Serve.
type Worker struct {
	opts WorkerOptions

	// mu guards hello, live and the engine's construction and reset.
	mu sync.Mutex
	// eng is built by the first handshake (nil before it) over the
	// geometry that handshake pins, and reset in place when a recovery
	// session supersedes its state epoch.
	eng atomic.Pointer[worker.Engine]
	// geometry of the index, pinned by the first handshake: its Task,
	// Bounds and Granularity, which geometryEqual compares.
	hello *wire.Hello
	// live is the current session's connection (nil before the first
	// handshake); a newer session closes it.
	live *wire.Conn

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
	sr := w.stats()
	return sr.Objects + sr.Inserts + sr.Deletes, sr.Delivered
}

// Epoch reports the coordinator session epoch the node last accepted (0
// before the first handshake): what its /healthz and /statsz report.
func (w *Worker) Epoch() uint64 { return w.fence.Load() }

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
// (or, with Once, until a session ends cleanly). Each connection is one
// session; a newer session supersedes a live one.
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

// serveConn runs one coordinator session. clean reports a
// Goodbye-terminated session.
func (w *Worker) serveConn(conn *wire.Conn) (clean bool, err error) {
	defer conn.Close()
	hello, err := recvHello(conn)
	if err != nil {
		return false, err
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
		// Queries arrive key first: the index needs no term statistics.
		cfg := worker.Config{
			Task:  hello.Task,
			Epoch: hello.Epoch,
			Index: gi2.NewShared(hello.Bounds, hello.Granularity, nil),
		}
		if eng == nil {
			eng = worker.New(cfg)
			w.eng.Store(eng)
		} else {
			w.opts.Log.printf("worker: session epoch %d supersedes state from epoch %d; resetting for replay",
				hello.Epoch, eng.Epoch())
			eng.Reset(cfg)
		}
		w.hello = &wire.Hello{Task: hello.Task, Bounds: hello.Bounds, Granularity: hello.Granularity}
		w.opts.Log.printf("worker: task %d over %v at granularity %d",
			hello.Task, hello.Bounds, hello.Granularity)
	case !geometryEqual(w.hello, &hello):
		w.mu.Unlock()
		return false, fmt.Errorf("node: reconnect with different geometry (task %d %v/%d, had task %d %v/%d)",
			hello.Task, hello.Bounds, hello.Granularity, w.hello.Task, w.hello.Bounds, w.hello.Granularity)
	}
	// A still-live previous session is superseded — its coordinator is
	// gone or reconnecting.
	old := w.live
	w.live = conn
	w.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if err := conn.Send(wire.Welcome{Role: wire.RoleWorker, Task: hello.Task}); err != nil {
		return false, err
	}
	fw := wire.NewFrameWriter(conn, 0)
	defer fw.Stop()

	// Liveness beacon: when the coordinator asked for heartbeats, a
	// sender goroutine pings at the requested cadence so the
	// coordinator's read deadline (4× this interval) only fires on a
	// genuinely dead connection, not on an idle-but-healthy one.
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
					if fw.SendFrame(wire.Ping{}) != nil {
						return
					}
				}
			}
		}()
	}
	return w.serveSession(conn, fw, eng)
}

// serveSession decodes, processes and answers one session's frames in
// arrival order: op batches, Drain markers, and control requests, which
// the engine serves (worker.Engine.Serve). Matches, deltas and replies
// all leave through fw, so a reply always follows the output of every op
// batch before its request: FIFO is the barrier for drains, stats,
// migration and window expiry alike.
func (w *Worker) serveSession(conn *wire.Conn, fw *wire.FrameWriter, eng *worker.Engine) (clean bool, err error) {
	// Decode, match, and delta scratch reused across batches; the codec
	// decodes into them without per-frame allocations.
	var ops []wire.OpEnv
	var matches []wire.MatchEnv
	var deltas []window.Delta
	// This session's emitted matches for the drain ack, and the number the
	// next op batch must carry.
	var emitted int64
	var next uint64
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return false, err
		}
		var req, reply wire.Frame
		switch typ {
		case wire.TypeOpBatch:
			var seq, epoch uint64
			if ops, seq, err = wire.DecodeBinOpBatch(payload, ops[:0]); err != nil {
				break
			}
			if seq != next {
				return false, fmt.Errorf("node: op batch %d arrived where %d was due (lost or duplicated frame)", seq, next)
			}
			next++
			matches, deltas, epoch = eng.Process(ops, matches[:0], deltas[:0])
			emitted += int64(len(matches))
			if len(matches) > 0 {
				buf := wire.GetBuf()
				buf.B = wire.AppendMatchBatch(buf.B, matches)
				err = fw.Send(wire.TypeMatchBatch, buf)
			}
			if err == nil && len(deltas) > 0 {
				buf := wire.GetBuf()
				buf.B = wire.AppendWindowDeltaBatch(buf.B, epoch, deltas)
				err = fw.Send(wire.TypeWindowDeltaBatch, buf)
			}
		case wire.TypeDrain:
			var d wire.Drain
			if d, err = wire.DecodeBinDrain(payload); err == nil {
				reply = wire.DrainAck{Seq: d.Seq, Emitted: emitted}
			}
		case wire.TypeGoodbye:
			// Flush the remaining output and answer in kind, so the
			// coordinator's read loop ends cleanly.
			if err := fw.Drain(); err != nil {
				return false, err
			}
			_ = conn.Send(wire.Goodbye{})
			return true, nil
		case wire.TypePing:
		default:
			if req, err = wire.DecodeControl(typ, payload); err == nil {
				if req == nil {
					w.opts.Log.printf("worker: skipping unknown frame type %d", typ)
					continue
				}
				reply, err = eng.Serve(req)
			}
		}
		if err == nil && reply != nil {
			err = sendReply(fw, reply)
		}
		if err != nil {
			return false, err
		}
	}
}

// sendReply sends a reply. A CellShare's cells go first, as the pages
// wire.Pages cuts them into, numbered with the share's sequence, and the
// share follows without them: a share of any size crosses in frames.
func sendReply(fw *wire.FrameWriter, reply wire.Frame) error {
	cs, ok := reply.(wire.CellShare)
	if !ok {
		return fw.SendFrame(reply)
	}
	for _, page := range wire.Pages(cs.Cells, wire.PageBudget) {
		page.Seq = cs.Seq
		if err := fw.SendFrame(page); err != nil {
			return err
		}
	}
	cs.Cells = nil
	return fw.SendFrame(cs)
}

// recvHello performs the receiving half of the handshake: the Hello
// frame, validated. The caller answers with a Welcome once it has
// accepted the session. A first frame that is not a coordinator's Hello in this tree's
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

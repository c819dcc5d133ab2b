package node

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
)

func testHello(task int) wire.Hello {
	return wire.Hello{
		Role:        wire.RoleCoordinator,
		Task:        task,
		Workers:     2,
		Bounds:      geo.NewRect(-125, 24, -66, 49),
		Granularity: 16,
		BatchSize:   8,
		Terms:       map[string]int{"coffee": 5, "pizza": 2, "rare": 1},
	}
}

func startWorker(t *testing.T, opts WorkerOptions) (*Worker, string, context.CancelFunc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(opts)
	go w.Serve(ctx, ln)
	t.Cleanup(cancel)
	return w, ln.Addr().String(), cancel
}

func query(id uint64, expr string, r geo.Rect) *model.Query {
	e, err := model.ParseExpr(expr)
	if err != nil {
		panic(err)
	}
	return &model.Query{ID: id, Expr: e, Region: r, Subscriber: id * 10}
}

func TestWorkerSessionMatchesAndDrain(t *testing.T) {
	w, addr, _ := startWorker(t, WorkerOptions{})
	cl, err := wire.DialWorker(addr, testHello(1), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	area := geo.NewRect(-80, 30, -70, 40)
	t0 := time.Unix(1700000000, 0)
	err = cl.SendOps(wire.OpBatch{Ops: []wire.OpEnv{
		{Op: model.Op{Kind: model.OpInsert, Query: query(1, "coffee", area)}, T0: t0},
		{Op: model.Op{Kind: model.OpInsert, Query: query(2, "tea", area)}, T0: t0},
		{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: 100, Terms: []string{"coffee", "shop"}, Loc: geo.Point{X: -75, Y: 35}}}, T0: t0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := cl.RecvMatches()
	if err != nil {
		t.Fatal(err)
	}
	if len(mb.Matches) != 1 {
		t.Fatalf("got %d matches, want 1", len(mb.Matches))
	}
	m := mb.Matches[0]
	if m.M.QueryID != 1 || m.M.ObjectID != 100 || m.M.Subscriber != 10 || m.M.Worker != 1 {
		t.Errorf("match = %+v", m.M)
	}
	if !m.T0.Equal(t0) {
		t.Errorf("T0 = %v, want %v", m.T0, t0)
	}
	// Drain barrier: the ack covers the batch sent above.
	ack, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Done != 3 || ack.Emitted != 1 {
		t.Errorf("ack = %+v, want Done 3 Emitted 1", ack)
	}
	// Delete and re-publish: no match.
	err = cl.SendOps(wire.OpBatch{Ops: []wire.OpEnv{
		{Op: model.Op{Kind: model.OpDelete, Query: query(1, "coffee", area)}},
		{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: 101, Terms: []string{"coffee"}, Loc: geo.Point{X: -75, Y: 35}}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ack, err = cl.Drain(); err != nil || ack.Emitted != 1 {
		t.Fatalf("after delete: ack %+v, err %v", ack, err)
	}
	if got := w.QueryCount(); got != 1 {
		t.Errorf("QueryCount = %d, want 1", got)
	}
	if err := cl.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RecvMatches(); err != io.EOF {
		t.Errorf("after goodbye: %v, want io.EOF", err)
	}
	cl.Close()
}

func TestWorkerStatePersistsAcrossReconnect(t *testing.T) {
	_, addr, _ := startWorker(t, WorkerOptions{})
	area := geo.NewRect(-80, 30, -70, 40)

	cl, err := wire.DialWorker(addr, testHello(0), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendOps(wire.OpBatch{Ops: []wire.OpEnv{
		{Op: model.Op{Kind: model.OpInsert, Query: query(7, "pizza", area)}},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	cl.CloseSend()
	cl.Close()

	// Second session: the standing query must still match.
	cl2, err := wire.DialWorker(addr, testHello(0), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.SendOps(wire.OpBatch{Ops: []wire.OpEnv{
		{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: 200, Terms: []string{"pizza"}, Loc: geo.Point{X: -75, Y: 35}}}},
	}}); err != nil {
		t.Fatal(err)
	}
	mb, err := cl2.RecvMatches()
	if err != nil || len(mb.Matches) != 1 || mb.Matches[0].M.QueryID != 7 {
		t.Fatalf("reconnected session: matches %v, err %v", mb, err)
	}
	// End the session before the next dial: the worker serves its single
	// coordinator serially.
	cl2.CloseSend()
	for err == nil {
		_, err = cl2.RecvMatches()
	}

	// A reconnect with different geometry must be refused.
	bad := testHello(0)
	bad.Granularity = 32
	cl3, err := wire.DialWorker(addr, bad, wire.Backoff{Attempts: 3})
	if err == nil {
		// The handshake succeeds (geometry is checked after); the session
		// must then terminate without serving.
		if _, err := cl3.RecvMatches(); err == nil {
			t.Error("geometry-mismatched session served matches")
		}
		cl3.Close()
	}
}

// The worker hosts sliding-window top-k subscriptions: an insert with
// TopK set registers, a matching publish pushes a spontaneous Entered
// delta batch (counted by the drain barrier), and the fenced
// AdvanceWindow round expires it back out, returning the Left delta on
// the ack rather than the spontaneous stream.
func TestWorkerServesTopKDeltas(t *testing.T) {
	w, addr, _ := startWorker(t, WorkerOptions{})
	cl, err := wire.DialWorker(addr, testHello(0), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	var got []window.Delta
	cl.SetDeltaHandler(func(_ uint64, ds []window.Delta) {
		mu.Lock()
		got = append(got, ds...)
		mu.Unlock()
	})
	q := query(9, "coffee", geo.NewRect(-80, 30, -70, 40))
	q.TopK, q.Window = 3, time.Minute
	t0 := time.Unix(1700000000, 0)
	if err := cl.SendOps(wire.OpBatch{Ops: []wire.OpEnv{
		{Op: model.Op{Kind: model.OpInsert, Query: q}, T0: t0},
		{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: 41, Terms: []string{"coffee"}, Loc: geo.Point{X: -75, Y: 35}}}, T0: t0},
	}}); err != nil {
		t.Fatal(err)
	}
	ack, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Deltas != 1 {
		t.Errorf("ack.Deltas = %d, want 1", ack.Deltas)
	}
	if got := w.QueryCount(); got != 1 {
		t.Errorf("QueryCount = %d, want 1", got)
	}
	mu.Lock()
	if len(got) != 1 || !got[0].Entered || got[0].QueryID != 9 || got[0].MsgID != 41 {
		t.Fatalf("deltas = %+v, want one Entered for query 9 msg 41", got)
	}
	mu.Unlock()
	aa, err := cl.AdvanceWindow(t0.Add(2 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(aa.Deltas) != 1 || aa.Deltas[0].Entered || aa.Deltas[0].MsgID != 41 {
		t.Fatalf("advance ack deltas = %+v, want one Left for msg 41", aa.Deltas)
	}
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 1 {
		t.Errorf("spontaneous deltas after advance = %d, want still 1", n)
	}
}

// TestWorkerRecordsFenceEpoch: the informational fence frame must be
// accepted mid-stream and recorded, not torn down as an unknown frame.
func TestWorkerRecordsFenceEpoch(t *testing.T) {
	w, addr, _ := startWorker(t, WorkerOptions{})
	cl, err := wire.DialWorker(addr, testHello(0), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendFence(7); err != nil {
		t.Fatal(err)
	}
	// Drain is FIFO-ordered behind the fence, so after it the epoch is
	// visible — and the session survived the control frame.
	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := w.Epoch(); got != 7 {
		t.Errorf("Epoch = %d, want 7", got)
	}
}

func TestMergerDedupAndCounts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var got []model.Match
	m := NewMerger(MergerOptions{OnMatch: func(mm model.Match) {
		mu.Lock()
		got = append(got, mm)
		mu.Unlock()
	}})
	go m.Serve(ctx, ln)

	cl, err := wire.DialMerger(ln.Addr().String(), wire.Hello{Task: 0}, wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mk := func(q, o uint64) wire.MatchEnv {
		return wire.MatchEnv{M: model.Match{QueryID: q, ObjectID: o, Subscriber: q}}
	}
	if err := cl.SendMatches(wire.MatchBatch{Matches: []wire.MatchEnv{
		mk(1, 10), mk(1, 10), mk(2, 10), mk(1, 11),
	}}); err != nil {
		t.Fatal(err)
	}
	delivered, dups, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 3 || dups != 1 {
		t.Errorf("counts = %d delivered, %d dups; want 3, 1", delivered, dups)
	}
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 3 {
		t.Errorf("OnMatch fired %d times, want 3", n)
	}
	cl.CloseSend()
}

// TestMergerSessionCountsAreIndependent: two sessions to one node must
// report their own shares, so a coordinator summing per-transport counts
// never double-counts.
func TestMergerSessionCountsAreIndependent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMerger(MergerOptions{})
	go m.Serve(ctx, ln)

	cl1, err := wire.DialMerger(ln.Addr().String(), wire.Hello{Task: 0}, wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := wire.DialMerger(ln.Addr().String(), wire.Hello{Task: 1}, wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	cl1.SendMatches(wire.MatchBatch{Matches: []wire.MatchEnv{
		{M: model.Match{QueryID: 1, ObjectID: 1}}, {M: model.Match{QueryID: 1, ObjectID: 2}},
	}})
	cl2.SendMatches(wire.MatchBatch{Matches: []wire.MatchEnv{
		{M: model.Match{QueryID: 2, ObjectID: 1}},
	}})
	d1, _, err := cl1.Counts()
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := cl2.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != 2 || d2 != 1 {
		t.Errorf("session counts = %d, %d; want 2, 1", d1, d2)
	}
	total, _ := m.Counts()
	if total != 3 {
		t.Errorf("node total = %d, want 3", total)
	}
}

// TestWorkerReassemblesBatchOrderAcrossStreams pins the turnstile down
// at the protocol level: the object batch (send-order sequence 1) lands
// on one data connection before the query-insert batch (sequence 0)
// lands on the other, and the worker must still process the insert
// first — the match only exists if sequence reassembly restores the
// order the two sockets scrambled.
func TestWorkerReassemblesBatchOrderAcrossStreams(t *testing.T) {
	small := testHello(1)
	small.Streams = 2
	// A realistic sample: the data connections' hellos must not carry it
	// (an attach hello is session id and stream number only), and the
	// node must take its geometry from the control hello alone.
	big := testHello(1)
	big.Streams = 4
	big.Terms = make(map[string]int, 10000)
	for i := 0; i < 10000; i++ {
		big.Terms[fmt.Sprintf("term%05d", i)] = i + 1
	}
	big.Terms["coffee"] = 5
	t.Run("2 streams", func(t *testing.T) { reassembleAcrossStreams(t, small) })
	t.Run("4 streams, 10k-term sample", func(t *testing.T) { reassembleAcrossStreams(t, big) })
}

func reassembleAcrossStreams(t *testing.T, h wire.Hello) {
	_, addr, _ := startWorker(t, WorkerOptions{})
	h.SessionID = 424242
	dial := func(stream int) *wire.Conn {
		t.Helper()
		c, err := wire.Dial(addr, wire.Backoff{Attempts: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		dh := h
		dh.Stream = stream
		if err := c.Send(dh); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := c.RecvTimeout(5 * time.Second)
		if err != nil || typ != wire.TypeWelcome {
			t.Fatalf("welcome on stream %d: type %d, err %v", stream, typ, err)
		}
		wel, err := wire.DecodeBinWelcome(payload)
		if err != nil {
			t.Fatal(err)
		}
		if wel.Streams != h.Streams {
			t.Fatalf("granted streams=%d, want %d", wel.Streams, h.Streams)
		}
		return c
	}
	ctrl := dial(0)
	dataA, dataB := dial(1), dial(2)
	area := geo.NewRect(-80, 30, -70, 40)
	insert := wire.AppendOpBatch(nil, 0, []wire.OpEnv{
		{Op: model.Op{Kind: model.OpInsert, Query: query(1, "coffee", area)}},
	})
	object := wire.AppendOpBatch(nil, 1, []wire.OpEnv{
		{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: 100, Terms: []string{"coffee"}, Loc: geo.Point{X: -75, Y: 35}}}},
	})
	// Out of order on the wire: the object reaches the node first and
	// must park in the turnstile until the insert is processed.
	if err := dataB.SendPayload(wire.TypeOpBatch, object); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := dataA.SendPayload(wire.TypeOpBatch, insert); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SendPayload(wire.TypeDrain, wire.AppendDrain(nil, wire.Drain{Seq: 1, Ops: 2})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ctrl.RecvTimeout(5 * time.Second)
	if err != nil || typ != wire.TypeDrainAck {
		t.Fatalf("drain ack: type %d, err %v", typ, err)
	}
	ack, err := wire.DecodeBinDrainAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Done != 2 || ack.Emitted != 1 {
		t.Errorf("ack = %+v, want Done 2 Emitted 1", ack)
	}
	// The match rides the data connection that carried the object batch.
	typ, payload, err = dataB.RecvTimeout(5 * time.Second)
	if err != nil || typ != wire.TypeMatchBatch {
		t.Fatalf("match batch: type %d, err %v", typ, err)
	}
	ms, err := wire.DecodeBinMatchBatch(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].M.ObjectID != 100 || ms[0].M.QueryID != 1 {
		t.Fatalf("matches = %+v", ms)
	}
}

// TestWorkerMultiStreamSessionBarrier drives a negotiated multi-stream
// session hard: batches round-robin across four data connections with
// no barrier between the query insert and the objects — the node's
// sequence reassembly must order them exactly as sent — and the drain
// barrier still accounts for every op and every match arrives before
// the ack returns.
func TestWorkerMultiStreamSessionBarrier(t *testing.T) {
	_, addr, _ := startWorker(t, WorkerOptions{})
	h := testHello(1)
	h.Streams = 4
	cl, err := wire.DialWorker(addr, h, wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Streams() != 4 {
		t.Fatalf("granted streams=%d, want 4", cl.Streams())
	}
	area := geo.NewRect(-80, 30, -70, 40)
	if err := cl.SendOps(wire.OpBatch{Ops: []wire.OpEnv{
		{Op: model.Op{Kind: model.OpInsert, Query: query(1, "coffee", area)}},
	}}); err != nil {
		t.Fatal(err)
	}
	// Deliberately no barrier here: the insert and the objects ride
	// different data connections, and only the node's batch-sequence
	// reassembly keeps the insert ahead of every object it must match.
	const objects = 300
	sent := 1
	for i := 0; i < objects; i += 10 {
		var ops []wire.OpEnv
		for j := i; j < i+10; j++ {
			ops = append(ops, wire.OpEnv{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{
				ID: uint64(1000 + j), Terms: []string{"coffee"}, Loc: geo.Point{X: -75, Y: 35}}}})
		}
		if err := cl.SendOps(wire.OpBatch{Ops: ops}); err != nil {
			t.Fatal(err)
		}
		sent += 10
	}
	ack, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Done != int64(sent) {
		t.Errorf("ack.Done = %d, want %d", ack.Done, sent)
	}
	if ack.Emitted != objects {
		t.Errorf("ack.Emitted = %d, want %d", ack.Emitted, objects)
	}
	// Every match was enqueued before the ack: drain them non-blocking
	// up to Emitted without racing a slow stream.
	var got int
	for got < int(ack.Emitted) {
		mb, err := cl.RecvMatches()
		if err != nil {
			t.Fatalf("after %d/%d matches: %v", got, ack.Emitted, err)
		}
		got += len(mb.Matches)
	}
	if err := cl.CloseSend(); err != nil {
		t.Fatal(err)
	}
}

// refused dials addr raw, opens with the given hello frame payload, and
// asserts the node refuses it — a Goodbye in the Welcome's place, then a
// closed connection — in under a second, logging why.
func refused(t *testing.T, helloPayload []byte, wantLog string, prepare func(addr string)) {
	t.Helper()
	var mu sync.Mutex
	var logs []string
	_, addr, _ := startWorker(t, WorkerOptions{Log: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if prepare != nil {
		prepare(addr)
	}
	c, err := wire.Dial(addr, wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.SendPayload(wire.TypeHello, helloPayload); err != nil {
		t.Fatal(err)
	}
	typ, _, err := c.RecvTimeout(5 * time.Second)
	if err != nil || typ != wire.TypeGoodbye {
		t.Fatalf("refusal: frame type %d, err %v; want a goodbye", typ, err)
	}
	if _, _, err := c.RecvTimeout(5 * time.Second); err != io.EOF {
		t.Fatalf("after the refusal: %v, want the connection closed", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("refusal took %v, want under a second", elapsed)
	}
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		all := strings.Join(logs, "\n")
		mu.Unlock()
		if strings.Contains(all, wantLog) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node log does not say %q:\n%s", wantLog, all)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerRefusesVersion1GobHello: the handshake a version-1 peer sends
// — byte for byte what that tree's gob EncodePayload produced for its
// control hello — is refused by name, not left to time out.
func TestWorkerRefusesVersion1GobHello(t *testing.T) {
	blob, err := os.ReadFile("testdata/hello_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	refused(t, blob, "bad magic", nil)
}

// TestWorkerRefusesControlHelloWithoutStreams: there is one session
// shape, a control connection plus data connections.
func TestWorkerRefusesControlHelloWithoutStreams(t *testing.T) {
	h := testHello(0)
	h.SessionID = 7
	refused(t, wire.AppendHello(nil, h), "0 data streams", nil)
	h.SessionID, h.Streams = 0, 2
	refused(t, wire.AppendHello(nil, h), "session id 0", nil)
}

// TestWorkerRefusesDataHelloForUnknownSession: a data connection attaches
// to the live session or to nothing.
func TestWorkerRefusesDataHelloForUnknownSession(t *testing.T) {
	attach := wire.AppendHello(nil, wire.Hello{Role: wire.RoleCoordinator, SessionID: 99, Stream: 1})
	refused(t, attach, "no session 99", nil)
	// Same with a session live under another id.
	refused(t, attach, "no session 99", func(addr string) {
		cl, err := wire.DialWorker(addr, testHello(0), wire.Backoff{Attempts: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
	})
}

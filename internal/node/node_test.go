package node

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// objectAt is one object op published at t.
func objectAt(id uint64, term string, loc geo.Point, t time.Time) wire.OpEnv {
	return wire.OpEnv{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{ID: id, Terms: []string{term}, Loc: loc}}, T0: t}
}

func insertOp(q *model.Query) wire.OpEnv {
	return wire.OpEnv{Op: model.Op{Kind: model.OpInsert, Query: q}}
}

// TestWorkerControlRoundsFollowOps: a hop is one connection, so every
// control round is answered after every op batch sent before it. The
// client sends k batches and then, with no wait in between, asks for
// stats, cell stats, a cell copy, a window advance and a drain: each
// reply reflects all k batches. The drain ack follows its matches on the
// wire, so they are queued for RecvMatches by the time Drain returns,
// and an installed share matches the ops sent after the install.
func TestWorkerControlRoundsFollowOps(t *testing.T) {
	_, addr, _ := startWorker(t, WorkerOptions{})
	cl, err := wire.DialWorker(addr, testHello(1), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var deltas atomic.Int64
	cl.SetDeltaHandler(func(_ uint64, ds []window.Delta) { deltas.Add(int64(len(ds))) })
	send := func(ops ...wire.OpEnv) {
		t.Helper()
		if err := cl.SendOps(wire.OpBatch{Ops: ops}); err != nil {
			t.Fatal(err)
		}
	}
	area, at := geo.NewRect(-80, 30, -70, 40), geo.Point{X: -75, Y: 35}
	t0 := time.Unix(1700000000, 0)
	top := query(9, "coffee", area)
	top.TopK, top.Window = 1, time.Minute

	// Batch 0 subscribes a boolean and a top-1 query; batches 1..k each
	// publish objects newer than every earlier one, so the top-1 entry
	// after the last batch is its last object; the last batch also
	// subscribes query 2.
	const k, per = 30, 10
	send(insertOp(query(1, "coffee", area)), insertOp(top))
	var newest uint64
	for b := 1; b <= k; b++ {
		var ops []wire.OpEnv
		for j := 0; j < per; j++ {
			newest = uint64(100*b + j)
			ops = append(ops, objectAt(newest, "coffee", at, t0.Add(time.Duration(b)*time.Second+time.Duration(j)*time.Millisecond)))
		}
		if b == k {
			ops = append(ops, insertOp(query(2, "coffee", area)))
		}
		send(ops...)
	}

	sr, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Objects != k*per || sr.Inserts != 3 {
		t.Errorf("stats saw %d objects and %d inserts, want %d and 3", sr.Objects, sr.Inserts, k*per)
	}
	cells, err := cl.CellStats()
	if err != nil {
		t.Fatal(err)
	}
	cell := -1
	for _, cs := range cells {
		if cs.ObjSeen > 0 {
			if cell >= 0 || cs.ObjSeen != k*per || cs.Entries != 3 {
				t.Fatalf("cell stats %+v, want one cell with %d objects and 3 entries", cells, k*per)
			}
			cell = cs.Cell
		}
	}
	if cell < 0 {
		t.Fatalf("no cell saw an object: %+v", cells)
	}
	share, err := cl.ExtractCells([]wire.CellSpec{{Cell: cell}}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, q := range share.Cells[0].Queries {
		ids = append(ids, q.ID)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, []uint64{1, 2, 9}) {
		t.Errorf("copied share holds queries %v, want [1 2 9]", ids)
	}
	aa, err := cl.AdvanceWindow(t0.Add(k*time.Second + 2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(aa.Deltas) != 1 || aa.Deltas[0].Entered || aa.Deltas[0].MsgID != newest {
		t.Errorf("advance deltas %+v, want one departure of object %d", aa.Deltas, newest)
	}
	ack, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Done != 2+k*per+1 || ack.Emitted != k*per {
		t.Errorf("drain ack %+v, want Done %d and Emitted %d", ack, 2+k*per+1, k*per)
	}
	if got := deltas.Load(); got != ack.Deltas {
		t.Errorf("delta handler saw %d deltas when the drain returned, ack counts %d", got, ack.Deltas)
	}

	// A share installed by InstallCells matches the ops sent after it.
	if _, _, err := cl.InstallCells([]wire.CellPayload{{Cell: cell, Queries: []*model.Query{query(5, "tea", area)}}}, nil); err != nil {
		t.Fatal(err)
	}
	send(objectAt(7, "tea", at, t0))
	if ack, err = cl.Drain(); err != nil || ack.Emitted != k*per+1 {
		t.Fatalf("after the install: ack %+v, err %v; want Emitted %d", ack, err, k*per+1)
	}

	// Tear the connection down: what RecvMatches still returns was queued
	// before Drain did, and it is every match the ack counted.
	cl.Close()
	var got int64
	for {
		mb, err := cl.RecvMatches()
		if err != nil {
			break
		}
		got += int64(len(mb.Matches))
	}
	if got != ack.Emitted {
		t.Errorf("%d matches were queued when Drain returned, want %d", got, ack.Emitted)
	}
}

// TestWorkerRefusesOutOfOrderBatch: the client numbers op batches 0, 1,
// 2, … on the connection. A repeated or skipped number means a lost or
// duplicated frame; the node ends the session with an error, having
// processed no batch twice.
func TestWorkerRefusesOutOfOrderBatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seqs    []uint64
		wantLog string
	}{
		{"repeated", []uint64{0, 0}, "op batch 0 arrived where 1 was due"},
		{"skipped", []uint64{0, 2}, "op batch 2 arrived where 1 was due"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs logSink
			w, addr, _ := startWorker(t, WorkerOptions{Log: logs.logf})
			c, err := wire.Dial(addr, wire.Backoff{Attempts: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Send(testHello(0)); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := c.RecvTimeout(5 * time.Second); err != nil || typ != wire.TypeWelcome {
				t.Fatalf("welcome: type %d, err %v", typ, err)
			}
			batch := []wire.OpEnv{objectAt(100, "coffee", geo.Point{X: -75, Y: 35}, time.Time{})}
			for _, seq := range tc.seqs {
				if err := c.SendPayload(wire.TypeOpBatch, wire.AppendOpBatch(nil, seq, batch)); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := c.RecvTimeout(5 * time.Second); err != io.EOF {
				t.Fatalf("after the bad batch: %v, want the session closed", err)
			}
			if done, _ := w.Counts(); done != 1 {
				t.Errorf("node processed %d ops, want only the first batch's 1", done)
			}
			logs.await(t, tc.wantLog)
		})
	}
}

// logSink collects a node's log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// await fails t unless a line saying want is logged within a second.
func (l *logSink) await(t *testing.T, want string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		l.mu.Lock()
		all := strings.Join(l.lines, "\n")
		l.mu.Unlock()
		if strings.Contains(all, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node log does not say %q:\n%s", want, all)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// refused dials addr raw, opens with the given hello frame payload, and
// asserts the node refuses it — a Goodbye in the Welcome's place, then a
// closed connection — in under a second, logging why.
func refused(t *testing.T, helloPayload []byte, wantLog string) {
	t.Helper()
	var logs logSink
	_, addr, _ := startWorker(t, WorkerOptions{Log: logs.logf})
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
	logs.await(t, wantLog)
}

// TestWorkerRefusesVersion1GobHello: the handshake a version-1 peer sends
// — byte for byte what that tree's gob EncodePayload produced for its
// control hello — is refused by name, not left to time out.
func TestWorkerRefusesVersion1GobHello(t *testing.T) {
	blob, err := os.ReadFile("testdata/hello_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	refused(t, blob, "bad magic")
}

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

// The worker keeps only the geometry of its first handshake: the sampled
// terms of the hello feed the index's statistics and are not retained
// for the node's lifetime.
func TestWorkerKeepsNoHandshakeTerms(t *testing.T) {
	w, addr, _ := startWorker(t, WorkerOptions{})
	hello := testHello(1)
	cl, err := wire.DialWorker(addr, hello, wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	kept := w.hello
	w.mu.Unlock()
	if kept == nil {
		t.Fatal("no geometry retained after the handshake")
	}
	if kept.Terms != nil {
		t.Errorf("retained hello holds %d sampled terms, want none", len(kept.Terms))
	}
	if !geometryEqual(kept, &hello) {
		t.Errorf("retained geometry task %d %v/%d, handshake had task %d %v/%d",
			kept.Task, kept.Bounds, kept.Granularity, hello.Task, hello.Bounds, hello.Granularity)
	}
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
	if done, _ := w.Counts(); done != 3 || ack.Emitted != 1 {
		t.Errorf("ack = %+v after %d ops, want Emitted 1 after 3", ack, done)
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

// TestWorkerSendDrainAnswersInMatchStream: the ack of a SendDrain comes
// back through RecvMatches behind the matches of the ops sent before it,
// and a Drain round trip in between still gets its own ack.
func TestWorkerSendDrainAnswersInMatchStream(t *testing.T) {
	_, addr, _ := startWorker(t, WorkerOptions{})
	cl, err := wire.DialWorker(addr, testHello(0), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	area, at := geo.NewRect(-80, 30, -70, 40), geo.Point{X: -75, Y: 35}
	t0 := time.Unix(1700000000, 0)
	const rounds = 5
	for i := uint64(0); i < rounds; i++ {
		ops := []wire.OpEnv{insertOp(query(i+1, "coffee", area)), objectAt(100+i, "coffee", at, t0)}
		if err := cl.SendOps(wire.OpBatch{Ops: ops}); err != nil {
			t.Fatal(err)
		}
		if err := cl.SendDrain(); err != nil {
			t.Fatal(err)
		}
	}
	if ack, err := cl.Drain(); err != nil || ack.Emitted != rounds*(rounds+1)/2 {
		t.Fatalf("round trip after the markers: ack %+v, err %v", ack, err)
	}
	// Object 100+i matches queries 1..i+1; then the marker.
	for i := 0; i < rounds; i++ {
		matches := 0
		for {
			mb, err := cl.RecvMatches()
			if err != nil {
				t.Fatal(err)
			}
			if mb.Drained {
				break
			}
			matches += len(mb.Matches)
		}
		if matches != i+1 {
			t.Errorf("marker %d came after %d matches, want %d", i, matches, i+1)
		}
	}
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
// TopK set registers, a matching publish sends an Entered delta batch up
// the stream ahead of a later reply, and the fenced AdvanceWindow round
// expires it back out, returning the Left delta on the ack rather than
// in a delta batch.
func TestWorkerServesTopKDeltas(t *testing.T) {
	w, addr, _ := startWorker(t, WorkerOptions{})
	cl, err := wire.DialWorker(addr, testHello(0), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
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
	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := w.QueryCount(); got != 1 {
		t.Errorf("QueryCount = %d, want 1", got)
	}
	reply, got, _ := control(t, cl, wire.AdvanceWindow{Seq: 1, Now: t0.Add(2 * time.Minute)})
	if len(got) != 1 || !got[0].Entered || got[0].QueryID != 9 || got[0].MsgID != 41 {
		t.Fatalf("deltas before the advance ack = %+v, want one Entered for query 9 msg 41", got)
	}
	aa := reply.(wire.AdvanceAck)
	if len(aa.Deltas) != 1 || aa.Deltas[0].Entered || aa.Deltas[0].MsgID != 41 {
		t.Fatalf("advance ack deltas = %+v, want one Left for msg 41", aa.Deltas)
	}
	if err := cl.SendDrain(); err != nil {
		t.Fatal(err)
	}
	for _, mb := range recvUntil(t, cl, func(mb wire.MatchBatch) bool { return mb.Drained }) {
		if len(mb.Deltas) > 0 {
			t.Errorf("delta batch %+v after the advance, want none", mb.Deltas)
		}
	}
}

// TestWorkerInstallAckDeltasPrecedeLaterBatchDeltas: an install whose ack
// admits an entry into a top-1 subscription, then an op batch whose
// object displaces it. The up stream yields the ack, with its Entered,
// before the batch's Left for the same entry, so a consumer applying
// them in stream order never sees the entry leave before it entered.
func TestWorkerInstallAckDeltasPrecedeLaterBatchDeltas(t *testing.T) {
	_, addr, _ := startWorker(t, WorkerOptions{})
	cl, err := wire.DialWorker(addr, testHello(0), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	area, at := geo.NewRect(-80, 30, -70, 40), geo.Point{X: -75, Y: 35}
	t0 := time.Unix(1700000000, 0)
	q := query(9, "coffee", area)
	q.TopK, q.Window = 1, time.Minute
	if err := cl.SendOps(wire.OpBatch{Ops: []wire.OpEnv{insertOp(q)}}); err != nil {
		t.Fatal(err)
	}
	adopted := window.Entry{MsgID: 41, Terms: []string{"coffee"}, Loc: at, At: t0}
	if err := cl.SendControl(wire.InstallCells{Seq: 1, Cells: []wire.CellPayload{{Cell: wire.WholeQueries,
		Subs: []wire.SubEntries{{ID: q.ID, Entries: []window.Entry{adopted}}}}}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendOps(wire.OpBatch{Ops: []wire.OpEnv{objectAt(42, "coffee", at, t0.Add(time.Second))}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendDrain(); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, mb := range recvUntil(t, cl, func(mb wire.MatchBatch) bool { return mb.Drained }) {
		var ds []window.Delta
		if ack, ok := mb.Reply.(wire.InstallAck); ok {
			ds = ack.Deltas
		} else {
			ds = mb.Deltas
		}
		for _, d := range ds {
			order = append(order, fmt.Sprintf("%v:%d", d.Entered, d.MsgID))
		}
	}
	if want := []string{"true:41", "false:41", "true:42"}; !slices.Equal(order, want) {
		t.Errorf("deltas in stream order %v, want %v", order, want)
	}
}

// TestWorkerReportsSessionEpoch: a node's epoch, which its /healthz and
// /statsz report, is the coordinator session epoch it accepted.
func TestWorkerReportsSessionEpoch(t *testing.T) {
	w, addr, _ := startWorker(t, WorkerOptions{})
	if got := w.Epoch(); got != 0 {
		t.Errorf("Epoch before any session = %d, want 0", got)
	}
	hello := testHello(0)
	hello.Epoch = 7
	cl, err := wire.DialWorker(addr, hello, wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := w.Epoch(); got != 7 {
		t.Errorf("Epoch = %d, want 7", got)
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
// client sends k batches and then asks for stats, cell stats, a cell
// copy, a window advance and a drain: each reply reflects all k batches,
// and the stats reply comes up the stream behind every match and delta
// of them. The drain ack follows its matches on the wire, so they are
// queued for RecvMatches by the time Drain returns, and an installed
// share matches the ops sent after the install.
func TestWorkerControlRoundsFollowOps(t *testing.T) {
	_, addr, _ := startWorker(t, WorkerOptions{})
	cl, err := wire.DialWorker(addr, testHello(1), wire.Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
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

	reply, deltas, read := control(t, cl, wire.StatsReq{Seq: 1})
	if sr := reply.(wire.StatsReply); sr.Objects != k*per || sr.Inserts != 3 {
		t.Errorf("stats saw %d objects and %d inserts, want %d and 3", sr.Objects, sr.Inserts, k*per)
	}
	// The top-1 entry: the first object enters, every later one enters and
	// evicts its predecessor.
	if got, want := len(deltas), 2*k*per-1; got != want || read != k*per {
		t.Errorf("%d deltas and %d matches came up before the stats reply, want %d and %d", got, read, want, k*per)
	}
	reply, _, _ = control(t, cl, wire.CellStatsReq{Seq: 2})
	cells := reply.(wire.CellStatsReply).Cells
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
	reply, _, _ = control(t, cl, wire.ExtractCells{Seq: 3, Cells: []wire.CellSpec{{Cell: cell}}})
	share := reply.(wire.CellShare)
	var ids []uint64
	for _, q := range share.Cells[0].Queries {
		ids = append(ids, q.ID)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, []uint64{1, 2, 9}) {
		t.Errorf("copied share holds queries %v, want [1 2 9]", ids)
	}
	reply, _, _ = control(t, cl, wire.AdvanceWindow{Seq: 4, Now: t0.Add(k*time.Second + 2*time.Minute)})
	if aa := reply.(wire.AdvanceAck); len(aa.Deltas) != 1 || aa.Deltas[0].Entered || aa.Deltas[0].MsgID != newest {
		t.Errorf("advance deltas %+v, want one departure of object %d", aa.Deltas, newest)
	}
	ack, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Emitted != k*per {
		t.Errorf("drain ack %+v, want Emitted %d", ack, k*per)
	}

	// A share installed by InstallCells matches the ops sent after it.
	control(t, cl, wire.InstallCells{Seq: 5, Cells: []wire.CellPayload{{Cell: cell, Queries: []*model.Query{query(5, "tea", area)}}}})
	send(objectAt(7, "tea", at, t0))
	if ack, err = cl.Drain(); err != nil || ack.Emitted != k*per+1 {
		t.Fatalf("after the install: ack %+v, err %v; want Emitted %d", ack, err, k*per+1)
	}

	// Tear the connection down: what RecvMatches still returns was queued
	// before Drain did, and with the matches read before the stats reply
	// it is every match the ack counted.
	cl.Close()
	got := int64(read)
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

// recvUntil reads cl's up stream until an item for which stop reports
// true and returns every item read, that one included.
func recvUntil(t *testing.T, cl *wire.WorkerClient, stop func(wire.MatchBatch) bool) []wire.MatchBatch {
	t.Helper()
	var items []wire.MatchBatch
	for {
		mb, err := cl.RecvMatches()
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, mb)
		if stop(mb) {
			return items
		}
	}
}

// control sends req and reads the up stream up to its reply. It returns
// the reply, and the deltas and the number of matches read before it. A
// CellShare is returned with the cells of the pages sent ahead of it.
func control(t *testing.T, cl *wire.WorkerClient, req wire.Frame) (reply wire.Frame, deltas []window.Delta, matches int) {
	t.Helper()
	if err := cl.SendControl(req); err != nil {
		t.Fatal(err)
	}
	var cells []wire.CellPayload
	isPage := func(f wire.Frame) bool { _, ok := f.(wire.Page); return ok }
	for _, mb := range recvUntil(t, cl, func(mb wire.MatchBatch) bool { return mb.Reply != nil && !isPage(mb.Reply) }) {
		deltas = append(deltas, mb.Deltas...)
		matches += len(mb.Matches)
		if p, ok := mb.Reply.(wire.Page); ok {
			ic, err := p.Decode()
			if ex, _ := req.(wire.ExtractCells); err != nil || p.Seq != ex.Seq {
				t.Fatalf("page numbered %d (%v) answering %+v", p.Seq, err, req)
			}
			cells = append(cells, ic.Cells...)
			continue
		}
		reply = mb.Reply
	}
	if cs, ok := reply.(wire.CellShare); ok {
		if len(cs.Cells) > 0 {
			t.Fatalf("a share sent with %d cells of its own", len(cs.Cells))
		}
		cs.Cells = cells
		reply = cs
	}
	return reply, deltas, matches
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

// TestWorkerRefusesCellOutsideGrid: a control frame naming a cell the
// grid does not have ends its session with an error naming the cell —
// not the node process — and the same Serve then runs a working session.
func TestWorkerRefusesCellOutsideGrid(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame wire.Frame
		want  string
	}{
		{"copy", wire.ExtractCells{Seq: 1, Cells: []wire.CellSpec{{Cell: 5000}}}, "cell 5000"},
		{"remove", wire.ExtractCells{Seq: 1, Cells: []wire.CellSpec{{Cell: 5000}}, Remove: true}, "cell 5000"},
		{"remove whole queries", wire.ExtractCells{Seq: 1, Cells: []wire.CellSpec{{Cell: wire.WholeQueries}}, Remove: true}, "cell -1"},
		{"install", wire.InstallCells{Seq: 1, Cells: []wire.CellPayload{{Cell: 5000,
			Queries: []*model.Query{query(1, "coffee", geo.NewRect(-80, 30, -70, 40))}}}}, "cell 5000"},
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
			if err := c.Send(tc.frame); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.RecvTimeout(5 * time.Second); err != io.EOF {
				t.Fatalf("after the bad cell: %v, want the session closed", err)
			}
			logs.await(t, tc.want)
			if got := w.QueryCount(); got != 0 {
				t.Errorf("the refused frame left %d queries indexed", got)
			}

			cl, err := wire.DialWorker(addr, testHello(0), wire.Backoff{Attempts: 3})
			if err != nil {
				t.Fatalf("a new session on the same node: %v", err)
			}
			defer cl.Close()
			err = cl.SendOps(wire.OpBatch{Ops: []wire.OpEnv{
				insertOp(query(2, "coffee", geo.NewRect(-80, 30, -70, 40))),
				objectAt(100, "coffee", geo.Point{X: -75, Y: 35}, time.Time{}),
			}})
			if err != nil {
				t.Fatal(err)
			}
			if mb, err := cl.RecvMatches(); err != nil || len(mb.Matches) != 1 || mb.Matches[0].M.QueryID != 2 {
				t.Fatalf("new session: matches %+v, err %v; want query 2's one match", mb.Matches, err)
			}
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

package oplog

import (
	"slices"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
)

// at is the fixed submit stamp the plain-signature tests use; stamp
// semantics get their own tests below.
var at = time.Unix(1700000000, 0)

func q(id uint64) *model.Query {
	return &model.Query{ID: id, Region: geo.NewRect(0, 0, 1, 1)}
}

func insert(id uint64) model.Op { return model.Op{Kind: model.OpInsert, Query: q(id)} }
func del(id uint64) model.Op    { return model.Op{Kind: model.OpDelete, Query: q(id)} }
func object(id uint64) model.Op { return model.Op{Kind: model.OpObject, Obj: &model.Object{ID: id}} }

// install is a whole-query InstallCells request of the given queries.
func install(ids ...uint64) wire.InstallCells {
	p := wire.CellPayload{Cell: wire.WholeQueries}
	for _, id := range ids {
		p.Queries = append(p.Queries, q(id))
	}
	return wire.InstallCells{Cells: []wire.CellPayload{p}}
}

// pagesOf is cells as a base: the encoded pages wire.Pages cuts them
// into, at a budget small enough that a few queries fill a page.
func pagesOf(cells []wire.CellPayload) []wire.Page {
	var out []wire.Page
	for _, ic := range wire.Pages(cells, 100) {
		p, err := wire.DecodeBinPage(wire.AppendInstallCells(nil, ic))
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// population is a base holding the given queries.
func population(ids ...uint64) []wire.Page { return pagesOf(install(ids...).Cells) }

// decoded returns the cell payloads of base's pages, in order.
func decoded(t *testing.T, base []wire.Page) []wire.CellPayload {
	t.Helper()
	var cells []wire.CellPayload
	for _, p := range base {
		ic, err := p.Decode()
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, ic.Cells...)
	}
	return cells
}

// slot is a model of a worker slot's live query set, driven by the
// entries a log holds: operations, and the whole-query installs and
// deletes a cut serves.
type slot map[uint64]bool

func (s slot) apply(e Entry) {
	switch f := e.Frame.(type) {
	case nil:
		switch e.Op.Kind {
		case model.OpInsert:
			s[e.Op.Query.ID] = true
		case model.OpDelete:
			delete(s, e.Op.Query.ID)
		}
	case wire.InstallCells:
		for _, p := range f.Cells {
			for _, q := range p.Queries {
				s[q.ID] = true
			}
		}
		for _, id := range f.Deletes {
			delete(s, id)
		}
	}
}

// ids lists the slot's queries, ascending.
func (s slot) ids() []uint64 {
	out := make([]uint64, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// replayed rebuilds a slot from l's recovery plan.
func replayed(t *testing.T, l *Log) slot {
	t.Helper()
	base, tail, pos := l.Replay()
	s := slot{}
	s.apply(Entry{Frame: wire.InstallCells{Cells: decoded(t, base)}})
	for _, e := range tail {
		if e.Seq <= pos {
			t.Fatalf("tail entry %d at or below the base's position %d", e.Seq, pos)
		}
		s.apply(e)
	}
	return s
}

func TestAppendAssignsMonotonicSeqs(t *testing.T) {
	l := New()
	for i := 1; i <= 5; i++ {
		if got := l.Append(object(uint64(i)), at); got != uint64(i) {
			t.Fatalf("Append #%d returned seq %d", i, got)
		}
	}
	if got := l.AppendFrame(install(1)); got != 6 {
		t.Fatalf("AppendFrame returned seq %d, want 6", got)
	}
	if l.Seq() != 6 || l.TailLen() != 6 {
		t.Errorf("Seq=%d TailLen=%d, want 6/6", l.Seq(), l.TailLen())
	}
}

// TestCheckpointFoldsPrefixIntoBase: a checkpoint stores the population
// it is given as the base and drops exactly the entries at or below its
// position.
func TestCheckpointFoldsPrefixIntoBase(t *testing.T) {
	l := New()
	l.Append(insert(1), at)
	l.Append(insert(2), at)
	l.Append(object(100), at)
	l.Append(del(1), at)
	last := l.Append(insert(3), at) // seq 5, above the position below

	l.Checkpoint(4, population(2))
	if l.TailLen() != 1 {
		t.Errorf("TailLen = %d, want 1", l.TailLen())
	}
	base, tail, pos := l.Replay()
	if pos != 4 {
		t.Errorf("Replay position = %d, want 4", pos)
	}
	if cells := decoded(t, base); len(cells) != 1 || len(cells[0].Queries) != 1 || cells[0].Queries[0].ID != 2 {
		t.Errorf("base = %+v, want exactly query 2", cells)
	}
	if len(tail) != 1 || tail[0].Seq != last || tail[0].Op.Query.ID != 3 {
		t.Errorf("tail = %v, want the single insert of query 3 above the position", tail)
	}
}

func TestCheckpointIsMonotone(t *testing.T) {
	l := New()
	l.Append(insert(1), at)
	l.Append(insert(2), at)
	l.Checkpoint(2, population(1, 2))
	// A stale (smaller) position must be a no-op, not a regression.
	l.Checkpoint(1, population(1))
	if _, _, pos := l.Replay(); pos != 2 {
		t.Errorf("base position %d after a stale checkpoint, want 2", pos)
	}
	if got := replayed(t, l).ids(); !slices.Equal(got, []uint64{1, 2}) {
		t.Errorf("replay rebuilds %v, want [1 2]", got)
	}
}

// TestReplayIsACopy: the plan Replay returns does not change with later
// appends or checkpoints.
func TestReplayIsACopy(t *testing.T) {
	l := New()
	l.Append(insert(1), at)
	_, tail, _ := l.Replay()
	l.Append(insert(42), at)
	l.Checkpoint(2, population(1, 42))
	if len(tail) != 1 || tail[0].Op.Query.ID != 1 {
		t.Errorf("snapshot tail changed under a later append and checkpoint: %v", tail)
	}
}

func TestSinceReturnsStrictSuffix(t *testing.T) {
	l := New()
	var seqs []uint64
	for i := 0; i < 6; i++ {
		seqs = append(seqs, l.Append(object(uint64(i)), at))
	}
	if got := l.Since(seqs[3]); len(got) != 2 || got[0].Seq != seqs[4] {
		t.Errorf("Since(%d) = %v, want the 2 entries above it", seqs[3], got)
	}
	if got := l.Since(seqs[5]); got != nil {
		t.Errorf("Since(last) = %v, want nil", got)
	}
	if got := l.Since(0); len(got) != 6 {
		t.Errorf("Since(0) returned %d entries, want all 6", len(got))
	}
	// After truncation, Since only sees the surviving tail.
	l.Checkpoint(seqs[4], population())
	if got := l.Since(0); len(got) != 1 || got[0].Seq != seqs[5] {
		t.Errorf("Since(0) after checkpoint = %v, want the single tail entry", got)
	}
}

// TestCutFramesAreLoggedAsEntries: the requests a cut serves are tail
// entries in stream order among the operations, kept as sent, and a
// checkpoint drops them like any entry it covers.
func TestCutFramesAreLoggedAsEntries(t *testing.T) {
	l := New()
	l.Append(insert(5), at)
	extract := wire.ExtractCells{Cells: []wire.CellSpec{{Cell: 3}}, Remove: true, Subs: true}
	l.AppendFrame(extract)
	l.Append(object(9), at)
	l.AppendFrame(wire.InstallCells{Deletes: []uint64{5}})
	_, tail, _ := l.Replay()
	if len(tail) != 4 {
		t.Fatalf("tail = %v, want 4 entries", tail)
	}
	if f, ok := tail[1].Frame.(wire.ExtractCells); !ok || !f.Remove || f.Cells[0].Cell != 3 || tail[1].Op.Kind != 0 || tail[1].Op.Query != nil {
		t.Errorf("second entry = %+v, want the removing extraction of cell 3 alone", tail[1])
	}
	if tail[2].Frame != nil || tail[2].Op.Obj.ID != 9 {
		t.Errorf("third entry = %+v, want object 9", tail[2])
	}
	if got := replayed(t, l).ids(); len(got) != 0 {
		t.Errorf("replay rebuilds %v, want query 5 deleted by the logged install", got)
	}
	l.Checkpoint(l.Seq(), population())
	if l.TailLen() != 0 {
		t.Errorf("TailLen = %d after a checkpoint at the last entry, want 0", l.TailLen())
	}
}

// TestCheckpointKeepsBaseBands: the base is kept as given — window
// bands included, entries under their publish stamps — and no object
// entry outlives the checkpoint that covers it: the bands hold the
// window state a replay needs.
func TestCheckpointKeepsBaseBands(t *testing.T) {
	l := New()
	topk := &model.Query{ID: 1, Region: geo.NewRect(0, 0, 1, 1), TopK: 3, Window: 30 * time.Minute}
	l.Append(model.Op{Kind: model.OpInsert, Query: topk}, at)
	l.Append(object(100), at)
	pub := at.Add(-5 * time.Minute)
	base := pagesOf([]wire.CellPayload{{
		Cell:    wire.WholeQueries,
		Queries: []*model.Query{topk},
		Subs:    []wire.SubEntries{{ID: 1, Entries: []window.Entry{{MsgID: 100, At: pub}}}},
	}})
	l.Checkpoint(l.Seq(), base)
	got, tail, _ := l.Replay()
	if len(tail) != 0 {
		t.Fatalf("tail = %v after a checkpoint at the last entry, want empty", tail)
	}
	var subs []wire.SubEntries
	for _, c := range decoded(t, got) {
		subs = append(subs, c.Subs...)
	}
	if len(subs) != 1 || len(subs[0].Entries) != 1 {
		t.Fatalf("base bands = %+v, want the one band", subs)
	}
	if e := subs[0].Entries[0]; e.MsgID != 100 || !e.At.Equal(pub) {
		t.Errorf("band entry = %+v, want object 100 at %v", e, pub)
	}
}

// TestCheckpointAgeResets: the age of the base grows until a checkpoint
// stores a new one.
func TestCheckpointAgeResets(t *testing.T) {
	l := New()
	time.Sleep(20 * time.Millisecond)
	before := l.CheckpointAge()
	if before < 20*time.Millisecond {
		t.Fatalf("CheckpointAge = %v after 20ms, want at least that", before)
	}
	l.Append(insert(1), at)
	l.Checkpoint(1, population(1))
	if after := l.CheckpointAge(); after >= before {
		t.Errorf("CheckpointAge = %v after a checkpoint, want below %v", after, before)
	}
	// A stale checkpoint stores nothing, so it does not reset the age.
	time.Sleep(5 * time.Millisecond)
	l.Checkpoint(1, population())
	if l.CheckpointAge() < 5*time.Millisecond {
		t.Errorf("a stale checkpoint reset the age to %v", l.CheckpointAge())
	}
}

// run applies a program to a log and a model slot: op kinds and whole-
// query frames by value, and checkpoints whose base is the model's
// population at the log's last entry. It returns the model.
func run(l *Log, program []byte) slot {
	live := slot{}
	for _, b := range program {
		if b == 0xff {
			l.Checkpoint(l.Seq(), population(live.ids()...))
			continue
		}
		id := uint64(b%16) + 1
		var e Entry
		switch b % 5 {
		case 0:
			e = Entry{Op: del(id), T0: at}
		case 1:
			e = Entry{Op: object(id), T0: at}
		case 2:
			e = Entry{Frame: install(id)}
		case 3:
			e = Entry{Frame: wire.InstallCells{Deletes: []uint64{id}}}
		default:
			e = Entry{Op: insert(id), T0: at}
		}
		if e.Frame != nil {
			l.AppendFrame(e.Frame)
		} else {
			l.Append(e.Op, e.T0)
		}
		live.apply(e)
	}
	return live
}

// TestReplayEquivalence drives a pseudo-random program with interleaved
// checkpoints and checks the invariant recovery depends on: the base
// plus the tail replayed in order rebuilds exactly the live query set of
// the whole program.
func TestReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		x := uint64(seed)
		program := make([]byte, 400)
		for i := range program {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			program[i] = byte(x)
			if x%23 == 0 {
				program[i] = 0xff
			}
		}
		l := New()
		want := run(l, program)
		if got := replayed(t, l); !slices.Equal(got.ids(), want.ids()) {
			t.Fatalf("seed %d: replay rebuilds %v, want %v", seed, got.ids(), want.ids())
		}
	}
}

// FuzzCheckpointReplay feeds arbitrary operation, frame and checkpoint
// schedules and asserts that base plus tail never diverges from
// sequential application (the recovery correctness invariant).
func FuzzCheckpointReplay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xff, 4, 5})
	f.Add([]byte{2, 2, 0xff, 0, 0xff})
	f.Fuzz(func(t *testing.T, program []byte) {
		l := New()
		want := run(l, program)
		if got := replayed(t, l); !slices.Equal(got.ids(), want.ids()) {
			t.Fatalf("replay rebuilds %v, want %v", got.ids(), want.ids())
		}
	})
}

package oplog

import (
	"fmt"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
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

func TestAppendAssignsMonotonicSeqs(t *testing.T) {
	l := New()
	for i := 1; i <= 5; i++ {
		if got := l.Append(object(uint64(i)), at); got != uint64(i) {
			t.Fatalf("Append #%d returned seq %d", i, got)
		}
	}
	if l.Seq() != 5 || l.TailLen() != 5 {
		t.Errorf("Seq=%d TailLen=%d, want 5/5", l.Seq(), l.TailLen())
	}
}

func TestCheckpointFoldsPrefixIntoBase(t *testing.T) {
	l := New()
	l.Append(insert(1), at)
	l.Append(insert(2), at)
	l.Append(object(100), at)
	l.Append(del(1), at)
	last := l.Append(insert(3), at) // seq 5, above the watermark below

	l.Checkpoint(4, at)
	if wm := l.Watermark(); wm != 4 {
		t.Fatalf("Watermark = %d, want 4", wm)
	}
	if l.LiveLen() != 1 { // query 2 (1 deleted, 100 was an object)
		t.Errorf("LiveLen = %d, want 1", l.LiveLen())
	}
	base, tail, wm := l.Replay()
	if wm != 4 {
		t.Errorf("Replay watermark = %d, want 4", wm)
	}
	if len(base) != 1 || base[0].ID != 2 {
		t.Errorf("base = %v, want exactly query 2", base)
	}
	if len(tail) != 1 || tail[0].Seq != last || tail[0].Op.Query.ID != 3 {
		t.Errorf("tail = %v, want the single post-watermark insert of query 3", tail)
	}
}

func TestCheckpointIsMonotone(t *testing.T) {
	l := New()
	l.Append(insert(1), at)
	l.Append(insert(2), at)
	l.Checkpoint(2, at)
	// A stale (smaller) watermark must be a no-op, not a regression.
	l.Checkpoint(1, at)
	if wm := l.Watermark(); wm != 2 {
		t.Errorf("Watermark = %d after stale checkpoint, want 2", wm)
	}
	if l.LiveLen() != 2 {
		t.Errorf("LiveLen = %d, want 2", l.LiveLen())
	}
}

func TestReplayBaseIsSortedAndCopied(t *testing.T) {
	l := New()
	for _, id := range []uint64{9, 3, 7, 1} {
		l.Append(insert(id), at)
	}
	l.Checkpoint(4, at)
	base, tail, _ := l.Replay()
	for i := 1; i < len(base); i++ {
		if base[i-1].ID >= base[i].ID {
			t.Fatalf("base not sorted by id: %v", base)
		}
	}
	// The returned tail is a copy: appending to the log afterwards must
	// not show up in an already-taken snapshot.
	l.Append(insert(42), at)
	if len(tail) != 0 {
		t.Errorf("snapshot tail mutated by later append: %v", tail)
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
	l.Checkpoint(seqs[4], at)
	if got := l.Since(0); len(got) != 1 || got[0].Seq != seqs[5] {
		t.Errorf("Since(0) after checkpoint = %v, want the single tail entry", got)
	}
}

func TestAdoptAndDropAreLoggedAsEntries(t *testing.T) {
	l := New()
	l.AdoptQuery(q(5), at)
	l.DropQuery(q(5), at)
	// Both are tail entries (not base mutations): a crash before the
	// next checkpoint must replay them in order.
	if l.TailLen() != 2 || l.LiveLen() != 0 {
		t.Fatalf("TailLen=%d LiveLen=%d, want 2/0", l.TailLen(), l.LiveLen())
	}
	l.Checkpoint(2, at)
	if l.LiveLen() != 0 {
		t.Errorf("adopt+drop folded to LiveLen=%d, want 0", l.LiveLen())
	}
}

// TestReplayEquivalence drives a pseudo-random op sequence with
// interleaved checkpoints and checks the invariant recovery depends on:
// base + tail replayed in order always reconstructs exactly the live
// query set of the full original sequence.
func TestReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		l := New()
		livemodel := map[uint64]bool{}
		x := uint64(seed)
		next := func(n uint64) uint64 { // xorshift, deterministic per seed
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x % n
		}
		for i := 0; i < 400; i++ {
			id := next(40) + 1
			switch next(4) {
			case 0:
				l.Append(del(id), at)
				delete(livemodel, id)
			case 1:
				l.Append(object(id), at)
			default:
				l.Append(insert(id), at)
				livemodel[id] = true
			}
			if next(23) == 0 {
				l.Checkpoint(l.Seq(), at)
			}
		}
		base, tail, wm := l.Replay()
		got := map[uint64]bool{}
		for _, q := range base {
			got[q.ID] = true
		}
		for _, e := range tail {
			if e.Seq <= wm {
				t.Fatalf("seed %d: tail entry %d at or below watermark %d", seed, e.Seq, wm)
			}
			switch e.Op.Kind {
			case model.OpInsert:
				got[e.Op.Query.ID] = true
			case model.OpDelete:
				delete(got, e.Op.Query.ID)
			}
		}
		if fmt.Sprint(livemodel) != fmt.Sprint(got) {
			if len(livemodel) != len(got) {
				t.Fatalf("seed %d: replay reconstructs %d live queries, want %d", seed, len(got), len(livemodel))
			}
			for id := range livemodel {
				if !got[id] {
					t.Fatalf("seed %d: replay lost query %d", seed, id)
				}
			}
		}
	}
}

// FuzzCheckpointReplay feeds arbitrary op-kind/checkpoint schedules and
// asserts replay reconstruction never diverges from sequential
// application (the recovery correctness invariant).
func FuzzCheckpointReplay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xff, 4, 5})
	f.Add([]byte{2, 2, 0xff, 0, 0xff})
	f.Fuzz(func(t *testing.T, program []byte) {
		l := New()
		want := map[uint64]bool{}
		for _, b := range program {
			if b == 0xff {
				l.Checkpoint(l.Seq(), at)
				continue
			}
			id := uint64(b%16) + 1
			switch b % 3 {
			case 0:
				l.Append(del(id), at)
				delete(want, id)
			case 1:
				l.Append(object(id), at)
			default:
				l.Append(insert(id), at)
				want[id] = true
			}
		}
		base, tail, wm := l.Replay()
		got := map[uint64]bool{}
		for _, q := range base {
			got[q.ID] = true
		}
		for _, e := range tail {
			if e.Seq <= wm {
				t.Fatalf("tail entry %d at or below watermark %d", e.Seq, wm)
			}
			switch e.Op.Kind {
			case model.OpInsert:
				got[e.Op.Query.ID] = true
			case model.OpDelete:
				delete(got, e.Op.Query.ID)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("replay reconstructs %d live queries, want %d", len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("replay lost query %d", id)
			}
		}
	})
}

// TestCheckpointRetainsInWindowObjects pins the window-refill retention
// contract: with a live top-k subscription, covered object entries stay
// in the log as Refill entries until their publish stamp falls out of
// the largest top-k window, keeping a crash replay able to rebuild the
// node's window state (and the global TopKSet) exactly. Folding stops at
// the first retained object, so the query entries behind it replay after
// it, as they ran.
func TestCheckpointRetainsInWindowObjects(t *testing.T) {
	l := New()
	topk := &model.Query{ID: 1, Region: geo.NewRect(0, 0, 1, 1), TopK: 3, Window: 30 * time.Minute}
	l.Append(model.Op{Kind: model.OpInsert, Query: topk}, at)
	l.Append(object(100), at)                 // still in window at the checkpoint
	l.Append(object(101), at.Add(-time.Hour)) // already expired
	l.Append(insert(2), at)                   // follows a retained object: not folded
	l.Checkpoint(l.Seq(), at.Add(10*time.Minute))

	base, tail, wm := l.Replay()
	if len(base) != 1 || base[0].ID != 1 {
		t.Fatalf("base = %v, want the top-k query alone", base)
	}
	if len(tail) != 2 {
		t.Fatalf("replay tail has %d entries, want the retained object and the insert behind it: %v", len(tail), tail)
	}
	e := tail[0]
	if !e.Refill || e.Op.Kind != model.OpObject || e.Op.Obj.ID != 100 {
		t.Fatalf("retained entry = %+v, want refill of object 100", e)
	}
	if !e.T0.Equal(at) {
		t.Errorf("retained entry T0 = %v, want the original publish stamp %v", e.T0, at)
	}
	if e := tail[1]; e.Refill || e.Op.Kind != model.OpInsert || e.Op.Query.ID != 2 {
		t.Fatalf("second entry = %+v, want the insert of query 2 kept in place", e)
	}
	for _, e := range tail {
		if e.Seq > wm {
			t.Errorf("kept entry seq %d above watermark %d; it must stay covered", e.Seq, wm)
		}
	}
	// Kept entries do not count toward the op-count trigger.
	if l.TailLen() != 0 {
		t.Errorf("TailLen = %d with only kept entries, want 0", l.TailLen())
	}
	// Catch-up after a replay must not resend covered entries.
	if got := l.Since(wm); got != nil {
		t.Errorf("Since(watermark) = %v, want nil", got)
	}

	// Once the window slides past the entry, the next checkpoint drops it,
	// folds the insert behind it and retains only the still-live object.
	l.Append(object(102), at.Add(40*time.Minute))
	l.Checkpoint(l.Seq(), at.Add(45*time.Minute))
	_, tail, _ = l.Replay()
	if len(tail) != 1 || tail[0].Op.Obj.ID != 102 || !tail[0].Refill || l.LiveLen() != 2 {
		t.Fatalf("after window slide, tail = %v with %d live, want refill of object 102 only and 2 live", tail, l.LiveLen())
	}

	// Deleting the top-k subscription ends retention once the delete
	// folds, which waits for the object ahead of it to leave the window.
	l.Append(model.Op{Kind: model.OpDelete, Query: topk}, at.Add(46*time.Minute))
	l.Checkpoint(l.Seq(), at.Add(46*time.Minute))
	if _, tail, _ := l.Replay(); len(tail) != 2 || tail[1].Op.Kind != model.OpDelete {
		t.Fatalf("after top-k delete, tail = %v, want object 102 then the delete", tail)
	}
	l.Append(insert(3), at.Add(71*time.Minute))
	l.Checkpoint(l.Seq(), at.Add(71*time.Minute))
	if _, tail, _ := l.Replay(); len(tail) != 0 || l.LiveLen() != 2 {
		t.Fatalf("after the window passed, tail = %v with %d live, want empty and 2 live", tail, l.LiveLen())
	}
}

// TestAdoptObjectIsRefillEntry pins migration hand-off logging: adopted
// window entries replay as refill objects under their original stamps.
func TestAdoptObjectIsRefillEntry(t *testing.T) {
	l := New()
	pub := at.Add(-5 * time.Minute)
	l.AdoptObject(&model.Object{ID: 9}, pub)
	_, tail, _ := l.Replay()
	if len(tail) != 1 || !tail[0].Refill || tail[0].Op.Obj.ID != 9 || !tail[0].T0.Equal(pub) {
		t.Fatalf("adopted object logged as %+v, want refill of object 9 at %v", tail, pub)
	}
}

package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
)

var bounds = geo.NewRect(0, 0, 100, 100)

func randQueries(seed int64, n int) []*model.Query {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"alpha", "beta", "gamma", "delta", "eps"}
	qs := make([]*model.Query, 0, n)
	for i := 0; i < n; i++ {
		var e model.Expr
		a, b := vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]
		if rng.Intn(2) == 0 {
			e = model.And(a, b)
		} else {
			e = model.Or(a, b)
		}
		x, y := rng.Float64()*90, rng.Float64()*90
		qs = append(qs, &model.Query{
			ID:         uint64(i + 1),
			Expr:       e,
			Region:     geo.NewRect(x, y, x+5, y+5),
			Subscriber: uint64(rng.Intn(50)),
		})
	}
	return qs
}

func TestRoundTrip(t *testing.T) {
	qs := randQueries(1, 200)
	var buf bytes.Buffer
	if err := Write(&buf, bounds, qs); err != nil {
		t.Fatal(err)
	}
	h, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 200 || h.Bounds != bounds {
		t.Errorf("header = %+v", h)
	}
	if len(got) != len(qs) {
		t.Fatalf("round-tripped %d queries, want %d", len(got), len(qs))
	}
	for i := range got {
		if !reflect.DeepEqual(*got[i], *qs[i]) {
			t.Fatalf("query %d mismatch:\n got %+v\nwant %+v", i, got[i], qs[i])
		}
	}
}

// TestRoundTripPreservesTopKWindow: sliding-window top-k subscriptions
// carry two extra fields; a snapshot that dropped them would silently
// restore them as plain boolean subscriptions.
func TestRoundTripPreservesTopKWindow(t *testing.T) {
	qs := randQueries(3, 20)
	for i, q := range qs {
		if i%2 == 0 {
			q.TopK = i + 1
			q.Window = time.Duration(i+1) * time.Minute
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, bounds, qs); err != nil {
		t.Fatal(err)
	}
	_, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].TopK != qs[i].TopK || got[i].Window != qs[i].Window {
			t.Errorf("query %d: TopK/Window = %d/%v, want %d/%v",
				got[i].ID, got[i].TopK, got[i].Window, qs[i].TopK, qs[i].Window)
		}
		if got[i].IsTopK() != qs[i].IsTopK() {
			t.Errorf("query %d: IsTopK changed across the round trip", got[i].ID)
		}
	}
}

func TestDeterministicBytes(t *testing.T) {
	qs := randQueries(2, 100)
	shuffled := append([]*model.Query(nil), qs...)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	var a, b bytes.Buffer
	if err := Write(&a, bounds, qs); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, bounds, shuffled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same population in different order produced different snapshots")
	}
}

func TestDeduplicatesByID(t *testing.T) {
	q := randQueries(3, 1)[0]
	var buf bytes.Buffer
	if err := Write(&buf, bounds, []*model.Query{q, q, nil, q}); err != nil {
		t.Fatal(err)
	}
	h, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 1 || len(got) != 1 {
		t.Errorf("count = %d, queries = %d, want 1/1", h.Count, len(got))
	}
}

func TestEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, bounds, nil); err != nil {
		t.Fatal(err)
	}
	h, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 0 || len(got) != 0 {
		t.Errorf("empty snapshot decoded to %d queries", len(got))
	}
}

func TestRejectsGarbage(t *testing.T) {
	_, _, err := Read(bytes.NewReader([]byte("not a snapshot at all")))
	if !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("garbage err = %v, want ErrBadSnapshot", err)
	}
}

func TestRejectsTruncated(t *testing.T) {
	qs := randQueries(4, 50)
	var buf bytes.Buffer
	if err := Write(&buf, bounds, qs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 2, len(full) - 3} {
		_, _, err := Read(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("truncated at %d: err = %v, want ErrBadSnapshot", cut, err)
		}
	}
}

func TestRejectsWrongMagicAndVersion(t *testing.T) {
	if _, _, err := Read(bytes.NewReader(rawHeader("NOTPS2S", Version, 0))); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("wrong magic err = %v", err)
	}
	if _, _, err := Read(bytes.NewReader(rawHeader(magic, Version+99, 0))); !errors.Is(err, ErrFutureVersion) {
		t.Errorf("wrong version err = %v", err)
	}
	if _, _, err := Read(bytes.NewReader(rawHeader(magic, 2, 0))); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("gob version behind a binary header: err = %v", err)
	}
}

// rawHeader builds a binary snapshot header for header-tampering tests.
func rawHeader(m string, version, count uint64) []byte {
	b := binary.AppendUvarint([]byte(m), version)
	b = append(b, make([]byte, 32)...) // zero bounds
	return binary.AppendUvarint(b, count)
}

// TestFramesStayWithinBudget: a population larger than one page's
// budget is split into several frames, the pages wire.Pages cuts, each
// within wire.PageBudget, so no population can outgrow wire.MaxFrameSize.
func TestFramesStayWithinBudget(t *testing.T) {
	qs := randQueries(6, 40000)
	var buf bytes.Buffer
	if err := Write(&buf, bounds, qs); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()[len(rawHeader(magic, Version, uint64(len(qs)))):]))
	frames, total := 0, 0
	for {
		typ, payload, err := wire.ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil || typ != wire.TypeInstallCells {
			t.Fatalf("frame %d: type %d, err %v", frames, typ, err)
		}
		if len(payload) > wire.PageBudget {
			t.Errorf("frame %d carries %d bytes, over the %d-byte page budget", frames, len(payload), wire.PageBudget)
		}
		ic, err := wire.DecodeBinInstallCells(payload)
		if err != nil {
			t.Fatal(err)
		}
		frames++
		total += len(ic.Cells[0].Queries)
	}
	if frames < 2 || total != len(qs) {
		t.Errorf("%d queries in %d frames, want all %d in several", total, frames, len(qs))
	}
}

// Property: Write∘Read is the identity on arbitrary valid query
// populations (modulo duplicate ids).
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		qs := randQueries(seed, int(n))
		var buf bytes.Buffer
		if err := Write(&buf, bounds, qs); err != nil {
			return false
		}
		_, got, err := Read(&buf)
		if err != nil || len(got) != len(qs) {
			return false
		}
		for i := range got {
			if !reflect.DeepEqual(*got[i], *qs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

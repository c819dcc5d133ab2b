package snapshot

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"ps2stream/internal/model"
)

// The gob fixtures in testdata were written by the last build that wrote
// gob: v1.gob by Write with v1Queries, v2.gob by the per-worker state
// writer with randQueries(11, 40), a cell map, one ring entry and a
// watermark as the trailer that followed the queries. v3.snap was written
// by the last build that wrote version 3, by Write with v3Queries.

// v1Queries is the population of testdata/v1.gob.
func v1Queries() []*model.Query {
	qs := randQueries(21, 12)
	for i, q := range qs {
		if i%3 == 0 {
			q.TopK = i + 1
			q.Window = time.Duration(i+1) * time.Minute
		}
	}
	return qs
}

// v2Queries is the population of testdata/v2.gob.
func v2Queries() []*model.Query { return randQueries(11, 40) }

// v3Queries is the population of testdata/v3.snap.
func v3Queries() []*model.Query {
	qs := randQueries(31, 24)
	for i, q := range qs {
		if i%4 == 1 {
			q.TopK = i + 2
			q.Window = time.Duration(i+1) * 30 * time.Second
		}
	}
	return qs
}

func fixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameQueries(t *testing.T, got, want []*model.Query) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d queries, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Fatalf("query %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestStateRoundTrip: a version-2 state checkpoint converts to version 3
// without losing a subscription — read it, write it, read it back.
func TestStateRoundTrip(t *testing.T) {
	h, qs, err := Read(bytes.NewReader(fixture(t, "v2.gob")))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, h.Bounds, qs); err != nil {
		t.Fatal(err)
	}
	h3, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h3.Version != Version || h3.Bounds != h.Bounds || h3.Count != h.Count {
		t.Errorf("converted header = %+v, from %+v", h3, h)
	}
	sameQueries(t, got, v2Queries())
}

// TestStateReadableByQueryReader: Read extracts the population of a
// version-2 state checkpoint and skips its trailer.
func TestStateReadableByQueryReader(t *testing.T) {
	h, qs, err := Read(bytes.NewReader(fixture(t, "v2.gob")))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 2 || h.Bounds != bounds || h.Count != 40 {
		t.Errorf("v2 header = %+v", h)
	}
	sameQueries(t, qs, v2Queries())
}

// TestReadStateAcceptsQuerySnapshot: a version-1 query snapshot still
// loads, top-k fields included.
func TestReadStateAcceptsQuerySnapshot(t *testing.T) {
	h, qs, err := Read(bytes.NewReader(fixture(t, "v1.gob")))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 1 || h.Bounds != bounds || h.Count != 12 {
		t.Errorf("v1 header = %+v", h)
	}
	sameQueries(t, qs, v1Queries())
}

// TestReadAcceptsVersion3Snapshot: a version-3 file, whose frames carry
// an empty window ring, still loads, top-k fields included; a version-3
// frame whose payload does not end in that empty list is refused.
func TestReadAcceptsVersion3Snapshot(t *testing.T) {
	blob := fixture(t, "v3.snap")
	h, qs, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 3 || h.Bounds != bounds || h.Count != 24 {
		t.Errorf("v3 header = %+v", h)
	}
	sameQueries(t, qs, v3Queries())
	// The file ends in the last frame's empty ring, subs and deletes
	// counts; a non-zero ring count is not a version-3 snapshot.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-3] = 1
	if _, _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("v3 frame with a ring: err = %v, want ErrBadSnapshot", err)
	}
}

// TestStateRejectsTruncatedTrailer: a legacy file cut inside its query
// stream fails with ErrBadSnapshot, never a silently partial population.
func TestStateRejectsTruncatedTrailer(t *testing.T) {
	full := fixture(t, "v2.gob")
	for _, cut := range []int{0, 1, len(full) / 4, len(full) / 2} {
		if _, _, err := Read(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("truncated at %d/%d: err = %v, want ErrBadSnapshot", cut, len(full), err)
		}
	}
}

// TestStateRejectsFutureVersion: a binary header claiming the next
// version is refused as too new, not as corrupt.
func TestStateRejectsFutureVersion(t *testing.T) {
	if _, _, err := Read(bytes.NewReader(rawHeader(magic, Version+1, 0))); !errors.Is(err, ErrFutureVersion) {
		t.Errorf("future version err = %v, want ErrFutureVersion", err)
	}
}

// FuzzReadState: arbitrary bytes must never panic the reader, and any
// successful parse must return as many queries as its header counts.
func FuzzReadState(f *testing.F) {
	var v3 bytes.Buffer
	if err := Write(&v3, bounds, v1Queries()); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add([]byte("PS2SNAP nonsense"))
	f.Add(fixture(f, "v1.gob"))
	f.Add(fixture(f, "v2.gob"))
	f.Add(fixture(f, "v3.snap"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, qs, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrFutureVersion) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(qs) != h.Count {
			t.Fatalf("header counts %d queries, parse returned %d", h.Count, len(qs))
		}
		for _, q := range qs {
			if q == nil {
				t.Fatal("successful parse returned a nil query")
			}
		}
	})
}

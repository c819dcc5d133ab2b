package wire

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/window"
)

// sampleOpBatch exercises every field of the op-batch layout: all three
// op kinds, every presence bit (including refill), multi-conjunction
// expressions, zero and non-zero timestamps.
func sampleOpBatch() []OpEnv {
	q := &model.Query{
		ID:         42,
		Expr:       model.Expr{Conj: [][]string{{"coffee", "brooklyn"}, {"espresso"}}},
		Region:     geo.NewRect(-74.2, 40.5, -73.7, 40.95),
		Subscriber: 7,
		TopK:       5,
		Window:     3 * time.Minute,
	}
	return []OpEnv{
		{Op: model.Op{Kind: model.OpInsert, Query: q, Seq: 1}, T0: time.Unix(1700000000, 12345)},
		{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: 9, Terms: []string{"best", "coffee"}, Loc: geo.Point{X: -73.95, Y: 40.71},
		}, Seq: 2}, T0: time.Unix(1700000001, 0)},
		{Op: model.Op{Kind: model.OpDelete, Query: q, Seq: 3}},
		{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{ID: 10}, Seq: 4},
			T0: time.Unix(1699999999, 0), Refill: true},
	}
}

func sampleMatchBatch() []MatchEnv {
	return []MatchEnv{
		{M: model.Match{QueryID: 42, Subscriber: 7, ObjectID: 9, Worker: 3}, T0: time.Unix(5, 5)},
		{M: model.Match{QueryID: 1, ObjectID: 2}},
	}
}

// TestBinaryOpBatchRoundTrip: encode∘decode is the identity on every
// field, and re-encoding the decoded batch reproduces the bytes (the
// encoding is canonical).
func TestBinaryOpBatchRoundTrip(t *testing.T) {
	ops := sampleOpBatch()
	p := AppendOpBatch(nil, 5, ops)
	got, seq, err := DecodeBinOpBatch(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Errorf("batch seq = %d, want 5", seq)
	}
	if len(got) != len(ops) {
		t.Fatalf("got %d ops, want %d", len(got), len(ops))
	}
	gq := got[0].Op.Query
	q := ops[0].Op.Query
	if gq.ID != q.ID || gq.Subscriber != q.Subscriber || gq.TopK != q.TopK ||
		gq.Window != q.Window || gq.Region != q.Region || gq.Expr.String() != q.Expr.String() {
		t.Errorf("query = %+v, want %+v", gq, q)
	}
	if !got[0].T0.Equal(ops[0].T0) || !got[2].T0.IsZero() {
		t.Errorf("timestamps mangled: %v, %v", got[0].T0, got[2].T0)
	}
	gobj := got[1].Op.Obj
	if gobj.ID != 9 || gobj.Loc != (geo.Point{X: -73.95, Y: 40.71}) || len(gobj.Terms) != 2 {
		t.Errorf("object = %+v", gobj)
	}
	if got[3].Op.Obj.Terms != nil {
		t.Errorf("empty terms decoded as %v, want nil", got[3].Op.Obj.Terms)
	}
	if !got[3].Refill || got[0].Refill {
		t.Errorf("refill bits mangled: got %v/%v, want false/true on ops 0/3", got[0].Refill, got[3].Refill)
	}
	for i := range got {
		if got[i].Op.Kind != ops[i].Op.Kind || got[i].Op.Seq != ops[i].Op.Seq {
			t.Errorf("op %d: kind/seq = %v/%d, want %v/%d",
				i, got[i].Op.Kind, got[i].Op.Seq, ops[i].Op.Kind, ops[i].Op.Seq)
		}
	}
	if re := AppendOpBatch(nil, seq, got); !bytes.Equal(re, p) {
		t.Error("re-encoding the decoded batch changed the bytes")
	}
}

func TestBinaryMatchAndControlRoundTrip(t *testing.T) {
	ms := sampleMatchBatch()
	p := AppendMatchBatch(nil, ms)
	got, err := DecodeBinMatchBatch(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].M != ms[0].M || !got[0].T0.Equal(ms[0].T0) || !got[1].T0.IsZero() {
		t.Fatalf("matches = %+v, want %+v", got, ms)
	}
	if re := AppendMatchBatch(nil, got); !bytes.Equal(re, p) {
		t.Error("match batch re-encode changed the bytes")
	}

	d := Drain{Seq: 9}
	if got, err := DecodeBinDrain(AppendDrain(nil, d)); err != nil || got != d {
		t.Errorf("drain = %+v, %v; want %+v", got, err, d)
	}
	a := DrainAck{Seq: 9, Done: 12345, Emitted: 678, Duplicates: 2, Deltas: 11}
	if got, err := DecodeBinDrainAck(AppendDrainAck(nil, a)); err != nil || got != a {
		t.Errorf("drain ack = %+v, %v; want %+v", got, err, a)
	}
	fe := Fence{Epoch: 3}
	if got, err := DecodeBinFence(AppendFence(nil, fe)); err != nil || got != fe {
		t.Errorf("fence = %+v, %v; want %+v", got, err, fe)
	}
}

// TestSoloIsNotEncoded: Solo is the coordinator's note to itself. An
// envelope with it set encodes to the bytes of one without, and decodes
// with it false — a match that crossed the wire always meets the dedup
// window.
func TestSoloIsNotEncoded(t *testing.T) {
	ops, ms := sampleOpBatch(), sampleMatchBatch()
	plainOps, plainMs := AppendOpBatch(nil, 5, ops), AppendMatchBatch(nil, ms)
	for i := range ops {
		ops[i].Solo = true
	}
	for i := range ms {
		ms[i].Solo = true
	}
	if p := AppendOpBatch(nil, 5, ops); !bytes.Equal(p, plainOps) {
		t.Error("OpEnv.Solo changed the op batch encoding")
	}
	if p := AppendMatchBatch(nil, ms); !bytes.Equal(p, plainMs) {
		t.Error("MatchEnv.Solo changed the match batch encoding")
	}
	gotOps, _, err := DecodeBinOpBatch(plainOps, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotOps {
		if gotOps[i].Solo {
			t.Errorf("decoded op %d has Solo set", i)
		}
	}
	gotMs, err := DecodeBinMatchBatch(plainMs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotMs {
		if gotMs[i].Solo {
			t.Errorf("decoded match %d has Solo set", i)
		}
	}
}

func sampleDeltas() []window.Delta {
	return []window.Delta{
		{QueryID: 42, Subscriber: 7, MsgID: 9, K: 5, Rank: 0.75, Rel: 0.9, Entered: true},
		{QueryID: 42, Subscriber: 7, MsgID: 3, K: 5, Rank: 0.25, Rel: 0.4},
		{QueryID: 1, MsgID: 1<<40 + 1, K: 1, Rank: -2.5, Rel: 1, Entered: true},
	}
}

// TestBinaryWindowFramesRoundTrip: the top-k reconciliation frames —
// spontaneous delta batches and the fenced advance-window round —
// encode∘decode to identity and re-encode canonically.
func TestBinaryWindowFramesRoundTrip(t *testing.T) {
	ds := sampleDeltas()
	p := AppendWindowDeltaBatch(nil, 31, ds)
	got, epoch, err := DecodeBinWindowDeltaBatch(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 31 || len(got) != len(ds) {
		t.Fatalf("epoch %d, %d deltas; want 31, %d", epoch, len(got), len(ds))
	}
	for i := range ds {
		if got[i] != ds[i] {
			t.Errorf("delta %d = %+v, want %+v", i, got[i], ds[i])
		}
	}
	if re := AppendWindowDeltaBatch(nil, epoch, got); !bytes.Equal(re, p) {
		t.Error("delta batch re-encode changed the bytes")
	}

	aw := AdvanceWindow{Seq: 6, Now: time.Unix(1700000000, 999)}
	gotAW, err := DecodeBinAdvanceWindow(AppendAdvanceWindow(nil, aw))
	if err != nil || gotAW.Seq != aw.Seq || !gotAW.Now.Equal(aw.Now) {
		t.Errorf("advance window = %+v, %v; want %+v", gotAW, err, aw)
	}

	aa := AdvanceAck{Seq: 6, Epoch: 31, Deltas: ds}
	gotAA, err := DecodeBinAdvanceAck(AppendAdvanceAck(nil, aa))
	if err != nil || gotAA.Seq != aa.Seq || gotAA.Epoch != aa.Epoch || len(gotAA.Deltas) != len(ds) {
		t.Fatalf("advance ack = %+v, %v; want %+v", gotAA, err, aa)
	}
	for i := range ds {
		if gotAA.Deltas[i] != ds[i] {
			t.Errorf("ack delta %d = %+v, want %+v", i, gotAA.Deltas[i], ds[i])
		}
	}
}

// TestBinaryDecodeRejectsMalformed: truncations, trailing garbage, and
// out-of-domain fields all fail with ErrBadPayload instead of
// mis-decoding or panicking — every strict prefix and one trailing byte
// for every frame kind, then field-level corruptions of the hot frames.
// Hostile counts are TestDecodeRejectsHostileCounts.
func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	for _, fc := range frameCases() {
		if fc.redo == nil {
			continue
		}
		for cut := 0; cut < len(fc.payload); cut++ {
			if _, err := fc.redo(fc.payload[:cut]); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s truncated to %d/%d bytes: err = %v, want ErrBadPayload", fc.name, cut, len(fc.payload), err)
			}
		}
		if _, err := fc.redo(append(fc.payload[:len(fc.payload):len(fc.payload)], 0)); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s with a trailing byte: err = %v, want ErrBadPayload", fc.name, err)
		}
	}
	// A handshake from another tree is refused by name.
	hello := AppendHello(nil, Hello{})
	if _, err := DecodeBinHello(append([]byte("NOTPS2W"), hello[len(Magic):]...)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("foreign magic: err = %v, want a bad-magic refusal", err)
	}
	future := append([]byte(Magic), Version+1)
	if _, err := DecodeBinWelcome(append(future, AppendWelcome(nil, Welcome{})[len(Magic)+1:]...)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: err = %v, want a version refusal", err)
	}
	// A field outside its domain: unknown extraction flags (byte 1).
	flags := AppendExtractCells(nil, ExtractCells{})
	flags[1] = 0xFC
	if _, err := DecodeBinExtractCells(flags); !errors.Is(err, ErrBadPayload) {
		t.Errorf("unknown extract flags: err = %v, want ErrBadPayload", err)
	}
	whole := AppendOpBatch(nil, 9, sampleOpBatch())
	for cut := 1; cut < len(whole); cut++ {
		if _, _, err := DecodeBinOpBatch(whole[:cut], nil); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", cut, len(whole))
		}
	}
	if _, _, err := DecodeBinOpBatch(append(AppendOpBatch(nil, 9, sampleOpBatch()), 0), nil); err == nil {
		t.Error("trailing byte accepted")
	}
	// Corrupt in-domain fields of a valid single-op batch: byte 2 is the
	// op kind, byte 3 the presence bits (batch seq and count are both
	// single-byte varints here).
	one := AppendOpBatch(nil, 0, sampleOpBatch()[3:4])
	bad := append([]byte(nil), one...)
	bad[2] = byte(model.OpDelete) + 1
	if _, _, err := DecodeBinOpBatch(bad, nil); err == nil {
		t.Error("out-of-range op kind accepted")
	}
	bad = append(bad[:0], one...)
	bad[3] = 0xFF
	if _, _, err := DecodeBinOpBatch(bad, nil); err == nil {
		t.Error("unknown presence bits accepted")
	}
	// A hostile length prefix must be bounded by the payload size, not
	// trusted for allocation.
	if _, err := DecodeBinMatchBatch([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, nil); err == nil {
		t.Error("giant match count accepted")
	}
	if _, err := DecodeBinDrain([]byte{0x81}); err == nil {
		t.Error("truncated drain accepted")
	}
	if _, err := DecodeBinDrainAck([]byte{1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("drain ack with trailing bytes accepted")
	}
	if _, err := DecodeBinDrainAck([]byte{1, 2, 3, 4}); err == nil {
		t.Error("drain ack missing the delta count accepted")
	}
	// Window delta frames: truncations and hostile counts must be
	// rejected the same way.
	whole = AppendWindowDeltaBatch(nil, 3, sampleDeltas())
	for cut := 0; cut < len(whole); cut++ {
		if _, _, err := DecodeBinWindowDeltaBatch(whole[:cut], nil); err == nil {
			t.Fatalf("delta batch truncated to %d/%d bytes decoded cleanly", cut, len(whole))
		}
	}
	if _, _, err := DecodeBinWindowDeltaBatch(append(whole, 0), nil); err == nil {
		t.Error("delta batch trailing byte accepted")
	}
	if _, _, err := DecodeBinWindowDeltaBatch([]byte{3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, nil); err == nil {
		t.Error("giant delta count accepted")
	}
	if _, err := DecodeBinAdvanceWindow([]byte{1}); err == nil {
		t.Error("truncated advance window accepted")
	}
	if _, err := DecodeBinAdvanceAck([]byte{1, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}); err == nil {
		t.Error("advance ack with giant delta count accepted")
	}
}

// TestHotFrameCodecZeroAlloc is the regression gate on the codec's core
// property: steady-state encode and decode of the hot frames do no
// allocation (op-batch decode is exempt — it allocates the domain
// objects the index will retain, which is data, not codec overhead).
func TestHotFrameCodecZeroAlloc(t *testing.T) {
	ops := sampleOpBatch()
	ms := sampleMatchBatch()
	opP := AppendOpBatch(nil, 7, ops)
	mP := AppendMatchBatch(nil, ms)
	dP := AppendDrain(nil, Drain{Seq: 9})
	aP := AppendDrainAck(nil, DrainAck{Seq: 9, Done: 12345, Emitted: 678})
	fP := AppendFence(nil, Fence{Epoch: 3})
	ds := sampleDeltas()
	wP := AppendWindowDeltaBatch(nil, 31, ds)
	enc := make([]byte, 0, 4*len(opP))
	scratch := make([]MatchEnv, 0, len(ms))
	dscratch := make([]window.Delta, 0, len(ds))
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		enc = AppendOpBatch(enc[:0], 7, ops)
		enc = AppendMatchBatch(enc[:0], ms)
		enc = AppendDrain(enc[:0], Drain{Seq: 9})
		enc = AppendDrainAck(enc[:0], DrainAck{Seq: 9, Done: 12345})
		enc = AppendFence(enc[:0], Fence{Epoch: 3})
		enc = AppendWindowDeltaBatch(enc[:0], 31, ds)
		scratch, err = DecodeBinMatchBatch(mP, scratch[:0])
		dscratch, _, err = DecodeBinWindowDeltaBatch(wP, dscratch[:0])
		if err != nil {
			panic(err)
		}
		if _, err = DecodeBinDrain(dP); err != nil {
			panic(err)
		}
		if _, err = DecodeBinDrainAck(aP); err != nil {
			panic(err)
		}
		if _, err = DecodeBinFence(fP); err != nil {
			panic(err)
		}
	})
	limit := 0.0
	if raceEnabled {
		limit = 8 // race instrumentation may allocate; the -race matrix
		// still runs the test for its correctness side.
	}
	if allocs > limit {
		t.Errorf("hot-frame codec allocates %.1f times per round, want <= %v", allocs, limit)
	}
}

// redoByType maps a frame type to its decode-then-re-encode function, for
// the types that have a layout to decode (the three empty kinds do not).
var redoByType = sync.OnceValue(func() map[byte]func([]byte) ([]byte, error) {
	m := make(map[byte]func([]byte) ([]byte, error))
	for _, fc := range frameCases() {
		if fc.redo != nil {
			m[fc.typ] = fc.redo
		}
	}
	return m
})

// reencodeFrame is the whole receive surface behind framing: it decodes
// payload as frame type typ and re-encodes the value. known reports
// whether typ has a layout to decode.
func reencodeFrame(typ byte, payload []byte) (re []byte, known bool, err error) {
	redo, known := redoByType()[typ]
	if !known {
		return nil, false, nil
	}
	re, err = redo(payload)
	return re, true, err
}

// binarySeedFrames returns the seed corpus for FuzzBinaryFrame: the frame
// type byte followed by a payload — every case of the table, edge cases
// (non-minimal varint), and plain garbage.
func binarySeedFrames() [][]byte {
	seed := func(typ byte, p []byte) []byte { return append([]byte{typ}, p...) }
	var seeds [][]byte
	for _, fc := range frameCases() {
		seeds = append(seeds, seed(fc.typ, fc.payload))
	}
	return append(seeds,
		// Non-minimal varint: decodes, but re-encodes shorter. The fuzz
		// target asserts re-encoding is a fixed point, not that arbitrary
		// accepted inputs are already canonical.
		seed(TypeDrain, []byte{0x80, 0x00}),
		seed(TypeOpBatch, []byte{0xFF, 0xFF, 0xFF, 0xFF}),
		seed(TypeMatchBatch, []byte("GET / HTTP/1.1\r\n\r\n")),
		seed(TypeCellShare, []byte{1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}),
	)
}

// FuzzBinaryFrame feeds arbitrary bytes to the decoder of every frame
// type (first byte selects the type). Invalid payloads must error
// without panicking; for accepted payloads, re-encoding the decoded
// value must be a fixed point of encode∘decode — the canonical-encoding
// property the protocol relies on (it is what lets a drain ack or batch
// be compared byte-wise across hops).
func FuzzBinaryFrame(f *testing.F) {
	for _, s := range binarySeedFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ := data[0]
		enc1, known, err := reencodeFrame(typ, data[1:])
		if !known || err != nil {
			return
		}
		enc2, _, err := reencodeFrame(typ, enc1)
		if err != nil {
			t.Fatalf("type %d: re-encoded payload does not decode: %v", typ, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("type %d: encode∘decode is not a fixed point:\n%x\n%x", typ, enc1, enc2)
		}
	})
}

// TestWriteBinaryFuzzCorpus regenerates the committed seed corpora under
// testdata/fuzz when a layout changes. Run with:
//
//	WRITE_FUZZ_CORPUS=1 go test ./internal/wire -run TestWriteBinaryFuzzCorpus
func TestWriteBinaryFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the committed corpus")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, target := range []string{"FuzzBinaryFrame", "FuzzWireStream"} {
		if err := os.RemoveAll(filepath.Join("testdata", "fuzz", target)); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range binarySeedFrames() {
		write("FuzzBinaryFrame", fmt.Sprintf("seed-%02d", i), s)
	}
	for name, s := range streamSeeds(t) {
		write("FuzzWireStream", name, s)
	}
}

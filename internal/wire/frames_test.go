package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/window"
)

// frameCase is one frame value with its codec pair erased to bytes, so one
// table drives the round-trip, malformed-input and fuzz tests.
type frameCase struct {
	name    string
	typ     byte
	payload []byte
	// check decodes p and compares the value with the case's expectation.
	check func(t *testing.T, p []byte)
	// redo decodes p and re-encodes the value. Nil for the three kinds
	// whose payload is empty: there is nothing to decode.
	redo func(p []byte) ([]byte, error)
}

// frameOf builds the case for a value that decodes to itself.
func frameOf[T Frame](name string, v T, decode func([]byte) (T, error)) frameCase {
	return frameAs(name, v, v, decode)
}

// frameAs builds the case for a value the encoding normalises: v decodes
// to want (an empty list reads back nil).
func frameAs[T Frame](name string, v, want T, decode func([]byte) (T, error)) frameCase {
	fc := frameCase{name: name, typ: v.frameType(), payload: v.appendTo(nil)}
	if decode == nil {
		return fc
	}
	fc.check = func(t *testing.T, p []byte) {
		t.Helper()
		got, err := decode(p)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decoded\n %+v\nwant\n %+v", got, want)
		}
	}
	fc.redo = func(p []byte) ([]byte, error) {
		got, err := decode(p)
		if err != nil {
			return nil, err
		}
		return got.appendTo(nil), nil
	}
	return fc
}

// seqOpBatch is an op batch with the batch number its layout opens with:
// what makes OpBatch a Frame for the table.
type seqOpBatch struct {
	Seq uint64
	Ops []OpEnv
}

func (seqOpBatch) frameType() byte            { return TypeOpBatch }
func (b seqOpBatch) appendTo(d []byte) []byte { return AppendOpBatch(d, b.Seq, b.Ops) }

func decodeSeqOpBatch(p []byte) (seqOpBatch, error) {
	ops, seq, err := DecodeBinOpBatch(p, nil)
	return seqOpBatch{Seq: seq, Ops: ops}, err
}

func decodeMatchBatch(p []byte) (MatchBatch, error) {
	ms, err := DecodeBinMatchBatch(p, nil)
	return MatchBatch{Matches: ms}, err
}

func decodeWindowDeltaBatch(p []byte) (WindowDeltaBatch, error) {
	ds, epoch, err := DecodeBinWindowDeltaBatch(p, nil)
	return WindowDeltaBatch{Epoch: epoch, Deltas: ds}, err
}

func samplePayloads() []CellPayload {
	at := time.Unix(1700000000, 77)
	return []CellPayload{
		{
			Cell: 9,
			Queries: []*model.Query{
				sampleOpBatch()[0].Op.Query, // DNF and top-k
				{ID: 43, Expr: model.Expr{Conj: [][]string{{"pizza"}}}, Region: geo.NewRect(0, 0, 1, 1)},
			},
			Ring: []window.Entry{
				{MsgID: 7, Terms: []string{"coffee", "shop"}, Loc: geo.Point{X: -73.9, Y: 40.7}, At: at},
				{MsgID: 8},
			},
			Subs: []SubEntries{
				{ID: 42, Entries: []window.Entry{{MsgID: 7, Terms: []string{"coffee"}, At: at}}},
				{ID: 44},
			},
		},
		{Cell: -1}, // an engine without cells answers with one Cell<0 payload
	}
}

// frameCases is the table: every frame kind with populated and zero-valued
// fields, and nil beside empty for every list.
func frameCases() []frameCase {
	hello := Hello{
		Role: RoleCoordinator, Task: 3, Workers: 8, Bounds: geo.NewRect(-125, 24, -66, 49),
		Granularity: 64, BatchSize: 64, Terms: map[string]int{"pizza": 1, "coffee": 3, "": 2},
		HeartbeatMillis: 500, Epoch: 4,
	}
	noTerms, emptyTerms, withStreams := hello, hello, hello
	noTerms.Terms, emptyTerms.Terms = nil, map[string]int{}
	withStreams.Streams = 4

	ops, deltas, cells := sampleOpBatch(), sampleDeltas(), samplePayloads()
	emptyOp := ops[3]
	emptyOp.Op.Obj = &model.Object{ID: 10, Terms: []string{}}

	return []frameCase{
		frameOf("hello", hello, DecodeBinHello),
		frameOf("hello/zero", Hello{}, DecodeBinHello),
		frameOf("hello/nil-terms", noTerms, DecodeBinHello),
		frameAs("hello/empty-terms", emptyTerms, noTerms, DecodeBinHello),
		frameAs("hello/streams-ignored", withStreams, hello, DecodeBinHello),
		frameOf("welcome", Welcome{Role: RoleWorker, Task: 3}, DecodeBinWelcome),
		frameOf("welcome/zero", Welcome{}, DecodeBinWelcome),
		frameOf("op-batch", seqOpBatch{Seq: 5, Ops: ops}, decodeSeqOpBatch),
		frameOf("op-batch/nil", seqOpBatch{}, decodeSeqOpBatch),
		frameAs("op-batch/empty-terms", seqOpBatch{Ops: []OpEnv{emptyOp}}, seqOpBatch{Ops: ops[3:4]}, decodeSeqOpBatch),
		frameOf("match-batch", MatchBatch{Matches: sampleMatchBatch()}, decodeMatchBatch),
		frameOf("match-batch/nil", MatchBatch{}, decodeMatchBatch),
		frameOf("drain", Drain{Seq: 9}, DecodeBinDrain),
		frameOf("drain/zero", Drain{}, DecodeBinDrain),
		frameOf("drain-ack", DrainAck{Seq: 9, Done: 12345, Emitted: 678, Duplicates: 2, Deltas: 11}, DecodeBinDrainAck),
		frameOf("stats-req", StatsReq{Seq: 2}, DecodeBinStatsReq),
		frameOf("stats-req/zero", StatsReq{}, DecodeBinStatsReq),
		frameOf("stats-reply", StatsReply{Seq: 2, Delivered: 1, Duplicates: 2, Queries: 3, Objects: 4, Inserts: 5, Deletes: 6},
			DecodeBinStatsReply),
		frameOf("stats-reply/zero", StatsReply{}, DecodeBinStatsReply),
		frameOf("fence", Fence{Epoch: 3}, DecodeBinFence),
		frameOf("goodbye", Goodbye{}, nil),
		frameOf("cell-stats-req", CellStatsReq{Seq: 2}, DecodeBinCellStatsReq),
		frameAs("cell-stats-reply", CellStatsReply{Seq: 2, Cells: []CellStat{
			{Cell: 9, Entries: 2, ObjSeen: 5, SizeBytes: 128, Load: 10.5, Terms: []CellTermStat{{Term: "coffee", Queries: 2, ObjHits: 5}, {}}},
			{Cell: -1, Terms: []CellTermStat{}},
		}}, CellStatsReply{Seq: 2, Cells: []CellStat{
			{Cell: 9, Entries: 2, ObjSeen: 5, SizeBytes: 128, Load: 10.5, Terms: []CellTermStat{{Term: "coffee", Queries: 2, ObjHits: 5}, {}}},
			{Cell: -1},
		}}, DecodeBinCellStatsReply),
		frameOf("cell-stats-reply/zero", CellStatsReply{}, DecodeBinCellStatsReply),
		frameAs("extract-cells", ExtractCells{Seq: 2, Remove: true, Subs: true, Cells: []CellSpec{
			{Cell: 9, Keys: []string{"coffee", ""}}, {Cell: 10}, {Cell: 11, Keys: []string{}},
		}}, ExtractCells{Seq: 2, Remove: true, Subs: true, Cells: []CellSpec{
			{Cell: 9, Keys: []string{"coffee", ""}}, {Cell: 10}, {Cell: 11},
		}}, DecodeBinExtractCells),
		frameAs("extract-cells/copy", ExtractCells{Seq: 3, Cells: []CellSpec{}}, ExtractCells{Seq: 3}, DecodeBinExtractCells),
		frameOf("cell-share", CellShare{Seq: 2, Epoch: 31, Cells: cells, Deltas: deltas}, DecodeBinCellShare),
		frameAs("cell-share/empty-lists", CellShare{Seq: 2, Deltas: []window.Delta{}, Cells: []CellPayload{
			{Cell: 1, Queries: []*model.Query{}, Ring: []window.Entry{}, Subs: []SubEntries{{ID: 1, Entries: []window.Entry{}}}},
		}}, CellShare{Seq: 2, Cells: []CellPayload{{Cell: 1, Subs: []SubEntries{{ID: 1}}}}}, DecodeBinCellShare),
		frameOf("cell-share/zero", CellShare{}, DecodeBinCellShare),
		frameOf("install-cells", InstallCells{Seq: 3, Cells: cells, Deletes: []uint64{4, 1 << 40}}, DecodeBinInstallCells),
		frameAs("install-cells/empty-deletes", InstallCells{Seq: 3, Deletes: []uint64{}}, InstallCells{Seq: 3}, DecodeBinInstallCells),
		frameOf("install-ack", InstallAck{Seq: 3, Epoch: 31, Deltas: deltas}, DecodeBinInstallAck),
		frameAs("install-ack/empty-deltas", InstallAck{Seq: 3, Deltas: []window.Delta{}}, InstallAck{Seq: 3}, DecodeBinInstallAck),
		frameOf("reset-window", ResetWindow{}, nil),
		frameOf("ping", Ping{}, nil),
		frameOf("window-delta-batch", WindowDeltaBatch{Epoch: 31, Deltas: deltas}, decodeWindowDeltaBatch),
		frameOf("window-delta-batch/nil", WindowDeltaBatch{}, decodeWindowDeltaBatch),
		frameOf("advance-window", AdvanceWindow{Seq: 6, Now: time.Unix(1700000000, 999)}, DecodeBinAdvanceWindow),
		frameOf("advance-window/zero", AdvanceWindow{}, DecodeBinAdvanceWindow),
		frameOf("advance-ack", AdvanceAck{Seq: 6, Epoch: 31, Deltas: deltas}, DecodeBinAdvanceAck),
		frameOf("advance-ack/zero", AdvanceAck{}, DecodeBinAdvanceAck),
	}
}

// TestFrameRoundTripAllKinds: for every one of the 21 frame kinds,
// encode∘decode is the identity on every field (an empty list reads back
// nil) and re-encoding the decoded value reproduces the bytes.
func TestFrameRoundTripAllKinds(t *testing.T) {
	seen := map[byte]bool{}
	for _, fc := range frameCases() {
		seen[fc.typ] = true
		t.Run(fc.name, func(t *testing.T) {
			if fc.redo == nil {
				if len(fc.payload) != 0 {
					t.Fatalf("payload of %d bytes, want empty", len(fc.payload))
				}
				return
			}
			fc.check(t, fc.payload)
			re, err := fc.redo(fc.payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, fc.payload) {
				t.Errorf("re-encoding the decoded value changed the bytes:\n%x\n%x", fc.payload, re)
			}
		})
	}
	for typ := TypeHello; typ <= TypeAdvanceAck; typ++ {
		if !seen[typ] {
			t.Errorf("frame type %d (%s) has no case", typ, TypeName(typ))
		}
	}
}

// TestHelloTermsAreSortedOnTheWire: equal handshakes are equal bytes
// whatever order the map yields its keys in, and a decoder refuses the
// orders the encoder never writes.
func TestHelloTermsAreSortedOnTheWire(t *testing.T) {
	h := Hello{Terms: map[string]int{}}
	for i := 0; i < 64; i++ {
		h.Terms[string(rune('a'+i%26))+string(rune('A'+i/26))] = i
	}
	first := AppendHello(nil, h)
	for i := 0; i < 8; i++ {
		if !bytes.Equal(AppendHello(nil, h), first) {
			t.Fatal("two encodings of one hello differ")
		}
	}
	two := AppendHello(nil, Hello{Terms: map[string]int{"a": 1, "b": 2}})
	swapped := bytes.Replace(two, []byte("\x01a\x01\x01b\x02"), []byte("\x01b\x02\x01a\x01"), 1)
	repeated := bytes.Replace(two, []byte("\x01a\x01\x01b\x02"), []byte("\x01a\x01\x01a\x02"), 1)
	for name, p := range map[string][]byte{"unsorted": swapped, "repeated": repeated} {
		if bytes.Equal(p, two) {
			t.Fatalf("%s: the term run was not where the test expected it", name)
		}
		if _, err := DecodeBinHello(p); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s terms: err = %v, want ErrBadPayload", name, err)
		}
	}
}

// uv is one uvarint.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestDecodeRejectsHostileCounts: a count field of 2^40 in a payload of a
// few bytes fails with ErrBadPayload before the decoder allocates for it,
// for every list of every frame kind.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	huge := uv(1 << 40)
	// lastCount swaps the final byte of a valid payload — the zero count of
	// an empty trailing list — for the huge one.
	lastCount := func(f Frame) []byte {
		p := f.appendTo(nil)
		if p[len(p)-1] != 0 {
			t.Fatalf("%T does not end in an empty list", f)
		}
		return cat(p[:len(p)-1], huge)
	}
	one, zero := uv(1), uv(0)
	rect := make([]byte, 32)
	pad := make([]byte, 32)                  // so an outer count's minimum-size check passes
	query := cat(one, one, rect, zero, zero) // id, subscriber, region, top-k, window
	cases := []struct {
		name   string
		p      []byte
		decode func([]byte) error
	}{
		{"hello terms", lastCount(Hello{}), func(p []byte) error { _, err := DecodeBinHello(p); return err }},
		{"op batch ops", cat(zero, huge), func(p []byte) error { _, _, err := DecodeBinOpBatch(p, nil); return err }},
		{"op batch object terms", cat(zero, one, []byte{byte(model.OpObject), opHasObj}, one, huge, pad),
			func(p []byte) error { _, _, err := DecodeBinOpBatch(p, nil); return err }},
		{"op batch conjunctions", cat(zero, one, []byte{byte(model.OpInsert), opHasQuery}, query, huge, pad),
			func(p []byte) error { _, _, err := DecodeBinOpBatch(p, nil); return err }},
		{"op batch conjunction terms", cat(zero, one, []byte{byte(model.OpInsert), opHasQuery}, query, one, huge, pad),
			func(p []byte) error { _, _, err := DecodeBinOpBatch(p, nil); return err }},
		{"match batch", huge, func(p []byte) error { _, err := DecodeBinMatchBatch(p, nil); return err }},
		{"cell stats cells", lastCount(CellStatsReply{}), func(p []byte) error { _, err := DecodeBinCellStatsReply(p); return err }},
		{"cell stats terms", lastCount(CellStatsReply{Cells: []CellStat{{}}}), func(p []byte) error { _, err := DecodeBinCellStatsReply(p); return err }},
		{"extract specs", lastCount(ExtractCells{}), func(p []byte) error { _, err := DecodeBinExtractCells(p); return err }},
		{"extract keys", lastCount(ExtractCells{Cells: []CellSpec{{}}}), func(p []byte) error { _, err := DecodeBinExtractCells(p); return err }},
		{"share payloads", cat(one, one, huge), func(p []byte) error { _, err := DecodeBinCellShare(p); return err }},
		{"share queries", cat(one, one, one, one, huge), func(p []byte) error { _, err := DecodeBinCellShare(p); return err }},
		{"share ring", cat(one, one, one, one, zero, huge), func(p []byte) error { _, err := DecodeBinCellShare(p); return err }},
		{"share subs", cat(one, one, one, one, zero, zero, huge), func(p []byte) error { _, err := DecodeBinCellShare(p); return err }},
		{"share sub entries", cat(one, one, one, one, zero, zero, one, one, huge), func(p []byte) error { _, err := DecodeBinCellShare(p); return err }},
		{"share deltas", lastCount(CellShare{}), func(p []byte) error { _, err := DecodeBinCellShare(p); return err }},
		{"install payloads", cat(one, huge), func(p []byte) error { _, err := DecodeBinInstallCells(p); return err }},
		{"install deletes", lastCount(InstallCells{}), func(p []byte) error { _, err := DecodeBinInstallCells(p); return err }},
		{"install ack deltas", lastCount(InstallAck{}), func(p []byte) error { _, err := DecodeBinInstallAck(p); return err }},
		{"delta batch", lastCount(WindowDeltaBatch{}), func(p []byte) error { _, _, err := DecodeBinWindowDeltaBatch(p, nil); return err }},
		{"advance ack deltas", lastCount(AdvanceAck{}), func(p []byte) error { _, err := DecodeBinAdvanceAck(p); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Best of three: TotalAlloc is process-wide, and a stray
			// background allocation must not fail the bound.
			least := ^uint64(0)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := c.decode(c.p)
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrBadPayload) {
					t.Fatalf("err = %v, want ErrBadPayload", err)
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			// The error value is the only thing a refusal may allocate.
			if limit := uint64(len(c.p) + 512); least > limit {
				t.Errorf("refusing a %d-byte payload allocated %d bytes, want <= %d", len(c.p), least, limit)
			}
		})
	}
}

// The wire codec: one hand-rolled binary layout per frame kind.
// Varint-packed integers, fixed 8-byte little-endian floats and
// timestamps, strings as length-prefixed UTF-8, every list behind a
// count. Encoding appends to a caller-owned buffer and decoding reads
// into caller-owned scratch, so a warmed-up session does zero codec
// allocations per hot frame in either direction (op-batch decode still
// allocates the domain objects it returns — that is the data, not codec
// overhead; the index retains them past the batch).
//
// Every decoder treats its payload as hostile: a count is bounded by the
// bytes left (breader.count), a truncated or over-long payload is
// ErrBadPayload (breader.done), and the encoding is canonical in the
// fixed-point sense — re-encoding a decoded value reproduces itself. See
// docs/WIRE.md for the byte-level grammar.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/window"
)

// ErrBadPayload reports a payload that does not decode: truncated,
// trailing garbage, or a field outside its domain. It fails the
// connection — a corrupt frame is not recoverable mid-stream.
var ErrBadPayload = fmt.Errorf("wire: bad binary payload")

// t0Zero is the on-wire sentinel for a zero time.Time (whose UnixNano is
// not meaningful); it keeps the encoding canonical so encode∘decode is
// the identity on the wire bytes.
const t0Zero = math.MinInt64

// Buf is a pooled encode buffer. Producers grab one with GetBuf, append
// a payload with the Append* encoders, and hand it to a FrameWriter,
// which returns it to the pool after the frame is written.
type Buf struct{ B []byte }

var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 4096)} }}

// GetBuf returns an empty pooled buffer.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// PutBuf returns a buffer to the pool.
func PutBuf(b *Buf) {
	if b == nil || cap(b.B) > MaxFrameSize {
		return // don't pin a pathological frame's memory
	}
	bufPool.Put(b)
}

func appendTime(dst []byte, t time.Time) []byte {
	n := int64(t0Zero)
	if !t.IsZero() {
		n = t.UnixNano()
	}
	return binary.LittleEndian.AppendUint64(dst, uint64(n))
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendPoint(dst []byte, p geo.Point) []byte {
	dst = appendF64(dst, p.X)
	return appendF64(dst, p.Y)
}

func appendRect(dst []byte, r geo.Rect) []byte {
	dst = appendPoint(dst, r.Min)
	return appendPoint(dst, r.Max)
}

// appendStrs appends a counted run of strings.
func appendStrs(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendStr(dst, s)
	}
	return dst
}

// appendDoc appends the id, terms, location run that a published object
// and a window entry share.
func appendDoc(dst []byte, id uint64, terms []string, loc geo.Point) []byte {
	dst = binary.AppendUvarint(dst, id)
	dst = appendStrs(dst, terms)
	return appendPoint(dst, loc)
}

// appendQuery appends one query: the field run of an insert or delete op
// and of a migrating cell share.
func appendQuery(dst []byte, q *model.Query) []byte {
	dst = binary.AppendUvarint(dst, q.ID)
	dst = binary.AppendUvarint(dst, q.Subscriber)
	dst = appendRect(dst, q.Region)
	dst = binary.AppendUvarint(dst, uint64(q.TopK))
	dst = binary.AppendUvarint(dst, uint64(q.Window))
	dst = binary.AppendUvarint(dst, uint64(len(q.Expr.Conj)))
	for _, conj := range q.Expr.Conj {
		dst = appendStrs(dst, conj)
	}
	return dst
}

// appendEntry appends one sliding-window entry.
func appendEntry(dst []byte, e *window.Entry) []byte {
	dst = appendDoc(dst, e.MsgID, e.Terms, e.Loc)
	return appendTime(dst, e.At)
}

// Per-op presence bits (one byte on the wire).
const (
	opHasObj   = 1 << 0
	opHasQuery = 1 << 1
	opRefill   = 1 << 2
)

// AppendOpBatch appends the binary encoding of one op batch to dst.
// seq is the batch's number on its connection (0, 1, 2, …): the receiver
// checks that each batch is the next one, so a lost or duplicated frame
// ends the session instead of silently reordering the op stream
// (docs/WIRE.md).
func AppendOpBatch(dst []byte, seq uint64, ops []OpEnv) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for i := range ops {
		env := &ops[i]
		dst = append(dst, byte(env.Op.Kind))
		var pres byte
		if env.Op.Obj != nil {
			pres |= opHasObj
		}
		if env.Op.Query != nil {
			pres |= opHasQuery
		}
		if env.Refill {
			pres |= opRefill
		}
		dst = append(dst, pres)
		if o := env.Op.Obj; o != nil {
			dst = appendDoc(dst, o.ID, o.Terms, o.Loc)
		}
		if q := env.Op.Query; q != nil {
			dst = appendQuery(dst, q)
		}
		dst = binary.AppendUvarint(dst, env.Op.Seq)
		dst = appendTime(dst, env.T0)
	}
	return dst
}

// AppendMatchBatch appends the binary encoding of one match batch to dst.
func AppendMatchBatch(dst []byte, ms []MatchEnv) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ms)))
	for i := range ms {
		me := &ms[i]
		dst = binary.AppendUvarint(dst, me.M.QueryID)
		dst = binary.AppendUvarint(dst, me.M.Subscriber)
		dst = binary.AppendUvarint(dst, me.M.ObjectID)
		dst = binary.AppendUvarint(dst, uint64(me.M.Worker))
		dst = appendTime(dst, me.T0)
	}
	return dst
}

// AppendDrain appends the binary encoding of a drain request to dst.
func AppendDrain(dst []byte, d Drain) []byte {
	return binary.AppendUvarint(dst, d.Seq)
}

// AppendDrainAck appends the binary encoding of a drain ack to dst.
func AppendDrainAck(dst []byte, a DrainAck) []byte {
	dst = binary.AppendUvarint(dst, a.Seq)
	dst = binary.AppendUvarint(dst, uint64(a.Done))
	dst = binary.AppendUvarint(dst, uint64(a.Emitted))
	dst = binary.AppendUvarint(dst, uint64(a.Duplicates))
	return binary.AppendUvarint(dst, uint64(a.Deltas))
}

// AppendFence appends the binary encoding of a fence to dst.
func AppendFence(dst []byte, f Fence) []byte {
	return binary.AppendUvarint(dst, f.Epoch)
}

// appendDeltas appends a length-prefixed run of window deltas: the
// shared tail of WindowDeltaBatch and AdvanceAck payloads.
func appendDeltas(dst []byte, ds []window.Delta) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		dst = binary.AppendUvarint(dst, d.QueryID)
		dst = binary.AppendUvarint(dst, d.Subscriber)
		dst = binary.AppendUvarint(dst, d.MsgID)
		dst = binary.AppendUvarint(dst, uint64(d.K))
		dst = appendF64(dst, d.Rank)
		dst = appendF64(dst, d.Rel)
		var entered byte
		if d.Entered {
			entered = 1
		}
		dst = append(dst, entered)
	}
	return dst
}

// AppendWindowDeltaBatch appends the binary encoding of one window
// delta batch to dst.
func AppendWindowDeltaBatch(dst []byte, epoch uint64, ds []window.Delta) []byte {
	dst = binary.AppendUvarint(dst, epoch)
	return appendDeltas(dst, ds)
}

// AppendAdvanceWindow appends the binary encoding of an advance-window
// request to dst.
func AppendAdvanceWindow(dst []byte, a AdvanceWindow) []byte {
	dst = binary.AppendUvarint(dst, a.Seq)
	return appendTime(dst, a.Now)
}

// AppendAdvanceAck appends the binary encoding of an advance ack to dst.
func AppendAdvanceAck(dst []byte, a AdvanceAck) []byte {
	dst = binary.AppendUvarint(dst, a.Seq)
	dst = binary.AppendUvarint(dst, a.Epoch)
	return appendDeltas(dst, a.Deltas)
}

// breader walks a binary payload; a read past the end (or a malformed
// varint) latches bad and zero-fills every later read, so decoders check
// once at the end instead of after every field.
type breader struct {
	p   []byte
	off int
	bad bool
}

func (r *breader) fail() { r.bad = true }

func (r *breader) u8() byte {
	if r.bad || r.off >= len(r.p) {
		r.fail()
		return 0
	}
	b := r.p[r.off]
	r.off++
	return b
}

func (r *breader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *breader) u64() uint64 {
	if r.bad || r.off+8 > len(r.p) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

func (r *breader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *breader) time() time.Time {
	n := int64(r.u64())
	if r.bad || n == t0Zero {
		return time.Time{}
	}
	return time.Unix(0, n)
}

func (r *breader) str() string {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.p)-r.off) {
		r.fail()
		return ""
	}
	s := string(r.p[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *breader) point() geo.Point { return geo.Point{X: r.f64(), Y: r.f64()} }

func (r *breader) rect() geo.Rect { return geo.Rect{Min: r.point(), Max: r.point()} }

// done reports whether the payload decoded fully and exactly: a valid
// payload has no trailing bytes (the encoding is canonical, which is
// what lets the fuzz round-trip assert byte equality).
func (r *breader) done() bool { return !r.bad && r.off == len(r.p) }

// count reads a batch length and sanity-bounds it against the remaining
// payload (each element costs at least min bytes), so a hostile length
// prefix cannot make the decoder allocate unboundedly.
func (r *breader) count(min int) int {
	n := r.uvarint()
	if r.bad || n > uint64((len(r.p)-r.off)/min) {
		r.fail()
		return 0
	}
	return int(n)
}

// strs reads a counted run of strings (nil when empty).
func (r *breader) strs() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

// doc reads the id, terms, location run written by appendDoc.
func (r *breader) doc() (id uint64, terms []string, loc geo.Point) {
	return r.uvarint(), r.strs(), r.point()
}

// query reads one query written by appendQuery. The value is freshly
// allocated: the receiver's index retains it.
func (r *breader) query() *model.Query {
	q := &model.Query{ID: r.uvarint(), Subscriber: r.uvarint()}
	q.Region = r.rect()
	q.TopK = int(r.uvarint())
	q.Window = time.Duration(r.uvarint())
	if nc := r.count(1); nc > 0 {
		q.Expr.Conj = make([][]string, nc)
		for j := range q.Expr.Conj {
			q.Expr.Conj[j] = r.strs()
		}
	}
	return q
}

// entry reads one sliding-window entry written by appendEntry.
func (r *breader) entry() window.Entry {
	var e window.Entry
	e.MsgID, e.Terms, e.Loc = r.doc()
	e.At = r.time()
	return e
}

// DecodeBinOpBatch decodes a binary op batch payload, appending to dst
// (pass a reused scratch slice; its elements are overwritten). The
// returned Object/Query values are freshly allocated — the receiver's
// index retains them past the call. seq is the batch's number on its
// connection (see AppendOpBatch).
func DecodeBinOpBatch(p []byte, dst []OpEnv) (ops []OpEnv, seq uint64, err error) {
	r := breader{p: p}
	seq = r.uvarint()
	n := r.count(11) // kind + presence + seq + 8-byte t0
	for i := 0; i < n && !r.bad; i++ {
		var env OpEnv
		kind := r.u8()
		if kind > byte(model.OpDelete) {
			r.fail()
			break
		}
		env.Op.Kind = model.OpKind(kind)
		pres := r.u8()
		if pres&^(opHasObj|opHasQuery|opRefill) != 0 {
			r.fail()
			break
		}
		env.Refill = pres&opRefill != 0
		if pres&opHasObj != 0 {
			o := &model.Object{}
			o.ID, o.Terms, o.Loc = r.doc()
			env.Op.Obj = o
		}
		if pres&opHasQuery != 0 {
			env.Op.Query = r.query()
		}
		env.Op.Seq = r.uvarint()
		env.T0 = r.time()
		dst = append(dst, env)
	}
	if !r.done() {
		return dst, 0, fmt.Errorf("%w: op batch", ErrBadPayload)
	}
	return dst, seq, nil
}

// DecodeBinMatchBatch decodes a binary match batch payload, appending to
// dst (reused scratch: zero allocations once the slice has warmed up).
func DecodeBinMatchBatch(p []byte, dst []MatchEnv) ([]MatchEnv, error) {
	r := breader{p: p}
	n := r.count(12) // 4 varints + 8-byte t0
	for i := 0; i < n && !r.bad; i++ {
		var me MatchEnv
		me.M.QueryID = r.uvarint()
		me.M.Subscriber = r.uvarint()
		me.M.ObjectID = r.uvarint()
		me.M.Worker = int(r.uvarint())
		me.T0 = r.time()
		dst = append(dst, me)
	}
	if !r.done() {
		return dst, fmt.Errorf("%w: match batch", ErrBadPayload)
	}
	return dst, nil
}

// DecodeBinDrain decodes a binary drain request payload.
func DecodeBinDrain(p []byte) (Drain, error) {
	r := breader{p: p}
	d := Drain{Seq: r.uvarint()}
	if !r.done() {
		return Drain{}, fmt.Errorf("%w: drain", ErrBadPayload)
	}
	return d, nil
}

// DecodeBinDrainAck decodes a binary drain ack payload.
func DecodeBinDrainAck(p []byte) (DrainAck, error) {
	r := breader{p: p}
	a := DrainAck{
		Seq:        r.uvarint(),
		Done:       int64(r.uvarint()),
		Emitted:    int64(r.uvarint()),
		Duplicates: int64(r.uvarint()),
		Deltas:     int64(r.uvarint()),
	}
	if !r.done() {
		return DrainAck{}, fmt.Errorf("%w: drain ack", ErrBadPayload)
	}
	return a, nil
}

// readDeltas decodes a length-prefixed run of window deltas into dst
// (reused scratch; see DecodeBinMatchBatch).
func (r *breader) readDeltas(dst []window.Delta) []window.Delta {
	n := r.count(21) // 4 varints + two 8-byte floats + entered byte
	for i := 0; i < n && !r.bad; i++ {
		var d window.Delta
		d.QueryID = r.uvarint()
		d.Subscriber = r.uvarint()
		d.MsgID = r.uvarint()
		d.K = int(r.uvarint())
		d.Rank = r.f64()
		d.Rel = r.f64()
		switch r.u8() {
		case 0:
		case 1:
			d.Entered = true
		default:
			r.fail()
		}
		dst = append(dst, d)
	}
	return dst
}

// DecodeBinWindowDeltaBatch decodes a binary window delta batch payload,
// appending to dst (reused scratch: zero allocations once warmed up).
func DecodeBinWindowDeltaBatch(p []byte, dst []window.Delta) (ds []window.Delta, epoch uint64, err error) {
	r := breader{p: p}
	epoch = r.uvarint()
	dst = r.readDeltas(dst)
	if !r.done() {
		return dst, 0, fmt.Errorf("%w: window delta batch", ErrBadPayload)
	}
	return dst, epoch, nil
}

// DecodeBinAdvanceWindow decodes a binary advance-window request payload.
func DecodeBinAdvanceWindow(p []byte) (AdvanceWindow, error) {
	r := breader{p: p}
	a := AdvanceWindow{Seq: r.uvarint(), Now: r.time()}
	if !r.done() {
		return AdvanceWindow{}, fmt.Errorf("%w: advance window", ErrBadPayload)
	}
	return a, nil
}

// DecodeBinAdvanceAck decodes a binary advance ack payload.
func DecodeBinAdvanceAck(p []byte) (AdvanceAck, error) {
	r := breader{p: p}
	a := AdvanceAck{Seq: r.uvarint(), Epoch: r.uvarint()}
	a.Deltas = r.readDeltas(nil)
	if !r.done() {
		return AdvanceAck{}, fmt.Errorf("%w: advance ack", ErrBadPayload)
	}
	return a, nil
}

// DecodeBinFence decodes a binary fence payload.
func DecodeBinFence(p []byte) (Fence, error) {
	r := breader{p: p}
	f := Fence{Epoch: r.uvarint()}
	if !r.done() {
		return Fence{}, fmt.Errorf("%w: fence", ErrBadPayload)
	}
	return f, nil
}

// The frames below are the control plane: the handshake, stats polls and
// cell migration. They are rare and may be large (a Hello carries the
// whole sampled term vector, a CellShare a cell's queries and window), so
// they allocate what they decode; the layout rules are the hot frames'.

// appendHandshake appends the Magic and Version every Hello and Welcome
// opens with, so a peer built from another tree — a version-1 gob peer
// included — is refused by name on the first bytes it sends.
func appendHandshake(dst []byte) []byte {
	dst = append(dst, Magic...)
	return binary.AppendUvarint(dst, Version)
}

// handshake reads and checks what appendHandshake wrote.
func (r *breader) handshake() error {
	magic := r.p[:min(len(r.p), len(Magic))]
	r.off = len(magic)
	return CheckHandshake(string(magic), int(r.uvarint()))
}

// AppendHello appends the binary encoding of a Hello to dst. Terms are
// written in sorted key order, so equal handshakes are equal bytes.
func AppendHello(dst []byte, h Hello) []byte {
	dst = appendHandshake(dst)
	dst = appendStr(dst, h.Role)
	dst = binary.AppendUvarint(dst, uint64(h.Task))
	dst = binary.AppendUvarint(dst, uint64(h.Workers))
	dst = appendRect(dst, h.Bounds)
	dst = binary.AppendUvarint(dst, uint64(h.Granularity))
	dst = binary.AppendUvarint(dst, uint64(h.BatchSize))
	dst = binary.AppendUvarint(dst, uint64(h.HeartbeatMillis))
	dst = binary.AppendUvarint(dst, h.Epoch)
	terms := make([]string, 0, len(h.Terms))
	for t := range h.Terms {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	dst = binary.AppendUvarint(dst, uint64(len(terms)))
	for _, t := range terms {
		dst = appendStr(dst, t)
		dst = binary.AppendUvarint(dst, uint64(h.Terms[t]))
	}
	return dst
}

// DecodeBinHello decodes a binary Hello payload. A payload that does not
// open with this tree's Magic and Version fails with the reason.
func DecodeBinHello(p []byte) (Hello, error) {
	r := breader{p: p}
	if err := r.handshake(); err != nil {
		return Hello{}, fmt.Errorf("%w: hello: %v", ErrBadPayload, err)
	}
	h := Hello{Role: r.str(), Task: int(r.uvarint()), Workers: int(r.uvarint())}
	h.Bounds = r.rect()
	h.Granularity = int(r.uvarint())
	h.BatchSize = int(r.uvarint())
	h.HeartbeatMillis = int(r.uvarint())
	h.Epoch = r.uvarint()
	if n := r.count(2); n > 0 { // one-byte term + count
		h.Terms = make(map[string]int, n)
		prev := ""
		for i := 0; i < n && !r.bad; i++ {
			t := r.str()
			if i > 0 && t <= prev {
				r.fail() // unsorted or repeated: not what AppendHello writes
			}
			h.Terms[t] = int(r.uvarint())
			prev = t
		}
	}
	if !r.done() {
		return Hello{}, fmt.Errorf("%w: hello", ErrBadPayload)
	}
	return h, nil
}

// AppendWelcome appends the binary encoding of a Welcome to dst.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = appendHandshake(dst)
	dst = appendStr(dst, w.Role)
	return binary.AppendUvarint(dst, uint64(w.Task))
}

// DecodeBinWelcome decodes a binary Welcome payload.
func DecodeBinWelcome(p []byte) (Welcome, error) {
	r := breader{p: p}
	if err := r.handshake(); err != nil {
		return Welcome{}, fmt.Errorf("%w: welcome: %v", ErrBadPayload, err)
	}
	w := Welcome{Role: r.str(), Task: int(r.uvarint())}
	if !r.done() {
		return Welcome{}, fmt.Errorf("%w: welcome", ErrBadPayload)
	}
	return w, nil
}

// AppendStatsReq appends the binary encoding of a stats request to dst.
// CellStatsReq shares the layout.
func AppendStatsReq(dst []byte, s StatsReq) []byte {
	return binary.AppendUvarint(dst, s.Seq)
}

// DecodeBinStatsReq decodes a binary stats request payload.
func DecodeBinStatsReq(p []byte) (StatsReq, error) {
	r := breader{p: p}
	s := StatsReq{Seq: r.uvarint()}
	if !r.done() {
		return StatsReq{}, fmt.Errorf("%w: stats request", ErrBadPayload)
	}
	return s, nil
}

// AppendStatsReply appends the binary encoding of a stats reply to dst.
func AppendStatsReply(dst []byte, s StatsReply) []byte {
	dst = binary.AppendUvarint(dst, s.Seq)
	for _, n := range [...]int64{s.Delivered, s.Duplicates, s.Queries, s.Objects, s.Inserts, s.Deletes} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

// DecodeBinStatsReply decodes a binary stats reply payload.
func DecodeBinStatsReply(p []byte) (StatsReply, error) {
	r := breader{p: p}
	s := StatsReply{Seq: r.uvarint()}
	for _, n := range [...]*int64{&s.Delivered, &s.Duplicates, &s.Queries, &s.Objects, &s.Inserts, &s.Deletes} {
		*n = int64(r.uvarint())
	}
	if !r.done() {
		return StatsReply{}, fmt.Errorf("%w: stats reply", ErrBadPayload)
	}
	return s, nil
}

// AppendCellStatsReq appends the binary encoding of a cell-stats request
// to dst.
func AppendCellStatsReq(dst []byte, c CellStatsReq) []byte {
	return AppendStatsReq(dst, StatsReq(c))
}

// DecodeBinCellStatsReq decodes a binary cell-stats request payload.
func DecodeBinCellStatsReq(p []byte) (CellStatsReq, error) {
	s, err := DecodeBinStatsReq(p)
	return CellStatsReq(s), err
}

// AppendCellStatsReply appends the binary encoding of a cell-stats reply
// to dst.
func AppendCellStatsReply(dst []byte, c CellStatsReply) []byte {
	dst = binary.AppendUvarint(dst, c.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(c.Cells)))
	for i := range c.Cells {
		cs := &c.Cells[i]
		dst = binary.AppendUvarint(dst, uint64(cs.Cell))
		dst = binary.AppendUvarint(dst, uint64(cs.Entries))
		dst = binary.AppendUvarint(dst, uint64(cs.ObjSeen))
		dst = binary.AppendUvarint(dst, uint64(cs.SizeBytes))
		dst = appendF64(dst, cs.Load)
		dst = binary.AppendUvarint(dst, uint64(len(cs.Terms)))
		for _, t := range cs.Terms {
			dst = appendStr(dst, t.Term)
			dst = binary.AppendUvarint(dst, uint64(t.Queries))
			dst = binary.AppendUvarint(dst, uint64(t.ObjHits))
		}
	}
	return dst
}

// DecodeBinCellStatsReply decodes a binary cell-stats reply payload.
func DecodeBinCellStatsReply(p []byte) (CellStatsReply, error) {
	r := breader{p: p}
	c := CellStatsReply{Seq: r.uvarint()}
	if n := r.count(13); n > 0 { // 4 varints + 8-byte load + term count
		c.Cells = make([]CellStat, n)
	}
	for i := range c.Cells {
		cs := &c.Cells[i]
		cs.Cell = int(r.uvarint())
		cs.Entries = int(r.uvarint())
		cs.ObjSeen = int64(r.uvarint())
		cs.SizeBytes = int64(r.uvarint())
		cs.Load = r.f64()
		if n := r.count(3); n > 0 { // term length + 2 varints
			cs.Terms = make([]CellTermStat, n)
		}
		for j := range cs.Terms {
			cs.Terms[j] = CellTermStat{Term: r.str(), Queries: int(r.uvarint()), ObjHits: int64(r.uvarint())}
		}
	}
	if !r.done() {
		return CellStatsReply{}, fmt.Errorf("%w: cell stats reply", ErrBadPayload)
	}
	return c, nil
}

// ExtractCells flag bits (one byte on the wire).
const (
	extractRemove = 1 << 0
	extractSubs   = 1 << 1
)

// AppendExtractCells appends the binary encoding of an extraction request
// to dst. A spec's nil and empty Keys are the same bytes: the whole cell.
func AppendExtractCells(dst []byte, e ExtractCells) []byte {
	dst = binary.AppendUvarint(dst, e.Seq)
	var flags byte
	if e.Remove {
		flags |= extractRemove
	}
	if e.Subs {
		flags |= extractSubs
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(e.Cells)))
	for _, spec := range e.Cells {
		dst = binary.AppendUvarint(dst, uint64(spec.Cell))
		dst = appendStrs(dst, spec.Keys)
	}
	return dst
}

// DecodeBinExtractCells decodes a binary extraction request payload.
func DecodeBinExtractCells(p []byte) (ExtractCells, error) {
	r := breader{p: p}
	e := ExtractCells{Seq: r.uvarint()}
	flags := r.u8()
	if flags&^(extractRemove|extractSubs) != 0 {
		r.fail()
	}
	e.Remove, e.Subs = flags&extractRemove != 0, flags&extractSubs != 0
	if n := r.count(2); n > 0 { // cell + key count
		e.Cells = make([]CellSpec, n)
	}
	for i := range e.Cells {
		e.Cells[i] = CellSpec{Cell: int(r.uvarint()), Keys: r.strs()}
	}
	if !r.done() {
		return ExtractCells{}, fmt.Errorf("%w: extract cells", ErrBadPayload)
	}
	return e, nil
}

// appendEntries appends a counted run of window entries.
func appendEntries(dst []byte, es []window.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	for i := range es {
		dst = appendEntry(dst, &es[i])
	}
	return dst
}

// entries reads a counted run of window entries (nil when empty).
func (r *breader) entries() []window.Entry {
	n := r.count(26) // id + term count + 16-byte location + 8-byte time
	if n == 0 {
		return nil
	}
	es := make([]window.Entry, n)
	for i := range es {
		es[i] = r.entry()
	}
	return es
}

// appendPayloads appends a counted run of cell shares: the body CellShare
// and InstallCells have in common. Queries are non-nil.
func appendPayloads(dst []byte, cells []CellPayload) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	for i := range cells {
		c := &cells[i]
		dst = binary.AppendUvarint(dst, uint64(c.Cell))
		dst = binary.AppendUvarint(dst, uint64(len(c.Queries)))
		for _, q := range c.Queries {
			dst = appendQuery(dst, q)
		}
		dst = appendEntries(dst, c.Ring)
		dst = binary.AppendUvarint(dst, uint64(len(c.Subs)))
		for _, sub := range c.Subs {
			dst = binary.AppendUvarint(dst, sub.ID)
			dst = appendEntries(dst, sub.Entries)
		}
	}
	return dst
}

// payloads reads a counted run of cell shares (nil when empty).
func (r *breader) payloads() []CellPayload {
	n := r.count(4) // cell + three counts
	if n == 0 {
		return nil
	}
	cells := make([]CellPayload, n)
	for i := range cells {
		c := &cells[i]
		c.Cell = int(r.uvarint())
		if nq := r.count(37); nq > 0 { // 5 varints + 32-byte region
			c.Queries = make([]*model.Query, nq)
		}
		for j := range c.Queries {
			c.Queries[j] = r.query()
		}
		c.Ring = r.entries()
		if ns := r.count(2); ns > 0 { // id + entry count
			c.Subs = make([]SubEntries, ns)
		}
		for j := range c.Subs {
			c.Subs[j] = SubEntries{ID: r.uvarint(), Entries: r.entries()}
		}
	}
	return cells
}

// AppendCellShare appends the binary encoding of an extraction reply to
// dst.
func AppendCellShare(dst []byte, c CellShare) []byte {
	dst = binary.AppendUvarint(dst, c.Seq)
	dst = binary.AppendUvarint(dst, c.Epoch)
	dst = appendPayloads(dst, c.Cells)
	return appendDeltas(dst, c.Deltas)
}

// DecodeBinCellShare decodes a binary extraction reply payload.
func DecodeBinCellShare(p []byte) (CellShare, error) {
	r := breader{p: p}
	c := CellShare{Seq: r.uvarint(), Epoch: r.uvarint(), Cells: r.payloads()}
	c.Deltas = r.readDeltas(nil)
	if !r.done() {
		return CellShare{}, fmt.Errorf("%w: cell share", ErrBadPayload)
	}
	return c, nil
}

// AppendInstallCells appends the binary encoding of an install request to
// dst. Its length is what a migration reports as transferred bytes, for a
// local and a remote destination alike.
func AppendInstallCells(dst []byte, ic InstallCells) []byte {
	dst = binary.AppendUvarint(dst, ic.Seq)
	dst = appendPayloads(dst, ic.Cells)
	dst = binary.AppendUvarint(dst, uint64(len(ic.Deletes)))
	for _, id := range ic.Deletes {
		dst = binary.AppendUvarint(dst, id)
	}
	return dst
}

// DecodeBinInstallCells decodes a binary install request payload.
func DecodeBinInstallCells(p []byte) (InstallCells, error) {
	r := breader{p: p}
	ic := InstallCells{Seq: r.uvarint(), Cells: r.payloads()}
	if n := r.count(1); n > 0 {
		ic.Deletes = make([]uint64, n)
	}
	for i := range ic.Deletes {
		ic.Deletes[i] = r.uvarint()
	}
	if !r.done() {
		return InstallCells{}, fmt.Errorf("%w: install cells", ErrBadPayload)
	}
	return ic, nil
}

// AppendInstallAck appends the binary encoding of an install ack to dst.
// AdvanceAck shares the layout.
func AppendInstallAck(dst []byte, a InstallAck) []byte {
	return AppendAdvanceAck(dst, AdvanceAck(a))
}

// DecodeBinInstallAck decodes a binary install ack payload.
func DecodeBinInstallAck(p []byte) (InstallAck, error) {
	a, err := DecodeBinAdvanceAck(p)
	return InstallAck(a), err
}

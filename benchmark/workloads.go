package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strings"

	"ps2stream"
	"ps2stream/internal/model"
	"ps2stream/internal/workload"
)

// The topology every workload runs on. Fixed here so that a number in
// one result file means the same thing in the next.
const (
	topoDispatchers = 2
	topoWorkers     = 4
	topoMergers     = 2
	topoBatchSize   = 64

	// Seed sample the partitioner is fitted to (internal/bench's default
	// scale uses the same sizes).
	seedSampleObjects = 20000
	seedSampleQueries = 4000

	// churnIDBase is the first id of the churning subscriptions on
	// churn_mixed; standing subscriptions keep ids below it, so a
	// delivery can be classified from its id alone.
	churnIDBase = uint64(1) << 32

	// checkSample is the number of pooled objects whose exact delivered
	// set is compared with a brute force over the standing subscriptions.
	checkSample = 512
)

// workloadSpec is one named workload with its frozen calibration. The
// rates were measured once on the seed commit (see README.md) and are
// never recomputed per run: a run that adapted its load to the machine
// would hide exactly the regressions the benchmark exists to show.
type workloadSpec struct {
	Name string
	Why  string
	// Kind is the §VI query family of the standing subscriptions.
	Kind workload.QueryKind
	// Standing is the number of subscriptions registered during set-up.
	Standing int
	// ChurnMu, when positive, interleaves one subscribe or unsubscribe
	// after every published object, holding about ChurnMu churning
	// subscriptions live (lifetimes N(µ, 0.2µ) as in §VI-A).
	ChurnMu int
	// Remote places all four workers behind loopback TCP.
	Remote bool
	// PoolObjects is the number of distinct objects generated; the stream
	// cycles through them, re-stamping message ids on every pass.
	PoolObjects int
	// ClosedRate sizes a closed-loop segment: it publishes
	// ClosedRate × (segment seconds) operations, whatever time that takes.
	// It is the seed's closed-loop capacity, rounded.
	ClosedRate float64
	// OpenRate is the open-loop rate in operations per second: about a
	// fifth of ClosedRate. README.md says why not more.
	OpenRate float64
}

var workloads = []workloadSpec{
	{
		Name: "match_heavy",
		Why:  "100k standing Q1 subscriptions, objects only: gi2.Match, the mergers and dedup do most of the work",
		Kind: workload.Q1, Standing: 100000, PoolObjects: 120000,
		ClosedRate: 230000, OpenRate: 40000,
	},
	{
		Name: "route_heavy",
		Why:  "2k standing Q1 subscriptions, objects only: most objects are discarded at the dispatcher, so tokenising, gridt routing and stream hops carry the cost and gi2 almost none",
		Kind: workload.Q1, Standing: 2000, PoolObjects: 200000,
		ClosedRate: 1000000, OpenRate: 250000,
	},
	{
		Name: "churn_mixed",
		Why:  "50k standing Q1 subscriptions plus one subscribe or unsubscribe per object: index and routing writes run beside Match, so a read gain bought with write cost shows as a loss",
		Kind: workload.Q1, Standing: 50000, ChurnMu: 5000, PoolObjects: 100000,
		ClosedRate: 300000, OpenRate: 35000,
	},
	{
		Name: "wire_remote",
		Why:  "5k standing Q1 subscriptions, objects only, all four workers behind loopback TCP: few matches and a high tuple rate, so the codec, sockets, turnstile and node.Worker engine carry the cost",
		Kind: workload.Q1, Standing: 5000, Remote: true, PoolObjects: 200000,
		ClosedRate: 950000, OpenRate: 120000,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// quick shrinks a workload for the harness's own tests: populations and
// rates ÷20, so that all four run in seconds.
func (w workloadSpec) quick() workloadSpec {
	w.Standing /= 20
	w.ChurnMu /= 20
	w.PoolObjects /= 10
	w.ClosedRate /= 20
	w.OpenRate /= 20
	return w
}

// queryOp is the subscribe or unsubscribe that follows one object on a
// churning workload. Slot indexes inputs.churn; the subscription id is
// stamped per pass, so a pass never reuses an id of the pass before.
type queryOp struct {
	insert bool
	slot   int32
}

// inputs is everything generated from the seed before the system under
// test is opened. The program only ever sees these values through the
// public API.
type inputs struct {
	spec      workloadSpec
	region    ps2stream.Region
	seedMsgs  []ps2stream.Message
	seedSubs  []ps2stream.Subscription
	standing  []ps2stream.Subscription
	pool      []ps2stream.Message
	queryOps  []queryOp // len(pool) entries on a churning workload, else nil
	churn     []ps2stream.Subscription
	churnQ    []*model.Query // model form of churn, for the predicate check
	poolObjs  []*model.Object
	standingQ []*model.Query
	seedObjs  []*model.Object
	seedQrys  []*model.Query
	sha       string
}

// stride is the number of operations per pooled object: 1 when the
// stream is objects only, 2 when a query operation follows each object.
func (in *inputs) stride() uint64 {
	if in.queryOps != nil {
		return 2
	}
	return 1
}

func toMessage(o *model.Object) ps2stream.Message {
	return ps2stream.Message{ID: o.ID, Text: strings.Join(o.Terms, " "), Lat: o.Loc.Y, Lon: o.Loc.X}
}

func toSubscription(q *model.Query, id uint64) ps2stream.Subscription {
	return ps2stream.Subscription{
		ID:         id,
		Query:      q.Expr.String(),
		Region:     ps2stream.NewRegion(q.Region.Min.X, q.Region.Min.Y, q.Region.Max.X, q.Region.Max.Y),
		Subscriber: q.Subscriber,
	}
}

// generate builds a workload's inputs from the seed alone.
func generate(spec workloadSpec, seed int64) *inputs {
	ds := workload.TweetsUS()
	in := &inputs{
		spec:   spec,
		region: ps2stream.NewRegion(ds.Bounds.Min.X, ds.Bounds.Min.Y, ds.Bounds.Max.X, ds.Bounds.Max.Y),
	}

	sample := workload.Sample(ds, spec.Kind, seedSampleObjects, seedSampleQueries, seed)
	in.seedObjs, in.seedQrys = sample.Objects, sample.Queries
	in.seedMsgs = make([]ps2stream.Message, len(sample.Objects))
	for i, o := range sample.Objects {
		in.seedMsgs[i] = toMessage(o)
	}
	in.seedSubs = make([]ps2stream.Subscription, len(sample.Queries))
	for i, q := range sample.Queries {
		in.seedSubs[i] = toSubscription(q, q.ID)
	}

	qg := workload.NewQueryGenerator(ds, spec.Kind, seed^0x57a4d)
	in.standingQ = make([]*model.Query, spec.Standing)
	in.standing = make([]ps2stream.Subscription, spec.Standing)
	for i := range in.standingQ {
		q := qg.Query() // ids 1..Standing
		in.standingQ[i] = q
		in.standing[i] = toSubscription(q, q.ID)
	}

	if spec.ChurnMu > 0 {
		in.generateChurn(ds, seed)
	} else {
		og := workload.NewGenerator(ds, seed^0x0b1ec7)
		in.poolObjs = make([]*model.Object, spec.PoolObjects)
		for i := range in.poolObjs {
			in.poolObjs[i] = og.Object()
		}
	}
	in.pool = make([]ps2stream.Message, len(in.poolObjs))
	for i, o := range in.poolObjs {
		in.pool[i] = toMessage(o)
	}
	in.sha = in.digest()
	return in
}

// generateChurn draws the churning stream from workload.Stream with one
// query operation per object. A pass is self-contained: it ramps the
// churning population up from empty, holds it at ChurnMu while inserts
// and deletes alternate, and deletes what is left at the end, so the
// next pass can replay it under fresh ids.
func (in *inputs) generateChurn(ds workload.DatasetSpec, seed int64) {
	spec := in.spec
	st := workload.NewStream(ds, spec.Kind, workload.StreamConfig{Mu: spec.ChurnMu, ObjectRatio: 1, Seed: seed ^ 0xc4a21})
	slotOf := make(map[*model.Query]int32)
	var live []*model.Query // insertion order, deleted entries nil'd through slotLive
	slotLive := make(map[int32]bool)
	add := func(o *model.Object, q *model.Query, insert bool) {
		in.poolObjs = append(in.poolObjs, o)
		if insert {
			slot := int32(len(in.churnQ))
			slotOf[q] = slot
			slotLive[slot] = true
			live = append(live, q)
			in.churnQ = append(in.churnQ, q)
			in.churn = append(in.churn, toSubscription(q, 0))
			in.queryOps = append(in.queryOps, queryOp{insert: true, slot: slot})
			return
		}
		slot := slotOf[q]
		delete(slotLive, slot)
		in.queryOps = append(in.queryOps, queryOp{slot: slot})
	}
	for _, op := range st.Prewarm(spec.ChurnMu) {
		add(st.ObjectGen().Object(), op.Query, true)
	}
	// Steady part: object, insert, object, delete, … until the pool is
	// full apart from the deletes that empty it again.
	for len(in.poolObjs) < spec.PoolObjects-spec.ChurnMu {
		obj := st.Next()
		qop := st.Next()
		add(obj.Obj, qop.Query, qop.Kind == model.OpInsert)
	}
	for _, q := range live {
		if slotLive[slotOf[q]] {
			add(st.ObjectGen().Object(), q, false)
		}
	}
}

// digest is input_sha: a SHA-256 over every generated operation, so a
// change to internal/workload that shifts the inputs is caught instead
// of being read as a speed-up.
func (in *inputs) digest() string {
	h := sha256.New()
	subs := func(ss []ps2stream.Subscription) {
		for i := range ss {
			s := &ss[i]
			writeU64(h, s.ID)
			h.Write([]byte(s.Query))
			writeU64(h, math.Float64bits(s.Region.MinLat))
			writeU64(h, math.Float64bits(s.Region.MinLon))
			writeU64(h, math.Float64bits(s.Region.MaxLat))
			writeU64(h, math.Float64bits(s.Region.MaxLon))
			writeU64(h, s.Subscriber)
		}
	}
	msgs := func(ms []ps2stream.Message) {
		for i := range ms {
			m := &ms[i]
			h.Write([]byte(m.Text))
			writeU64(h, math.Float64bits(m.Lat))
			writeU64(h, math.Float64bits(m.Lon))
		}
	}
	msgs(in.seedMsgs)
	subs(in.seedSubs)
	subs(in.standing)
	msgs(in.pool)
	subs(in.churn)
	for _, q := range in.queryOps {
		v := uint64(q.slot) << 1
		if q.insert {
			v |= 1
		}
		writeU64(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// sampleIndexes picks the pooled objects whose delivered sets are
// checked exactly: a seeded choice without replacement.
func sampleIndexes(n, k int, seed int64) []int {
	if k > n {
		k = n
	}
	return rand.New(rand.NewSource(seed ^ 0x5a3b1e)).Perm(n)[:k]
}

func (w workloadSpec) String() string {
	return fmt.Sprintf("%s (standing %d %s, churn µ %d, remote %v, pool %d)",
		w.Name, w.Standing, w.Kind, w.ChurnMu, w.Remote, w.PoolObjects)
}

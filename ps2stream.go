// Package ps2stream is a distributed publish/subscribe system for
// spatio-textual data streams, reproducing PS2Stream (Chen et al., ICDE
// 2017). Subscribers register continuous queries combining a boolean
// keyword expression with a rectangular region; publishers emit objects
// carrying text and a location; the system routes each object to every
// matching subscription in real time.
//
// Internally the workload is spread over one dispatcher task and worker
// tasks (goroutines standing in for the paper's Storm cluster). The
// dispatcher routes every operation in the order Publish, Subscribe and
// Unsubscribe were called, and every worker applies them in that order.
// The paper's mergers are not tasks: a worker that finds a match which
// another worker may also report removes the duplicate under a lock, in
// a hash share's dedup window, and delivers the match itself. Messages
// move between tasks in batches of up to Options.BatchSize so the
// publish hot path amortises per-message transfer costs (see
// docs/ARCHITECTURE.md). The distribution strategy is pluggable: the
// paper's hybrid kdt-tree/gridt partitioning (default), or the two
// baselines it is compared against, metric text partitioning and
// kd-tree space partitioning.
// An adaptive load adjustment controller (Options.Adjust, AdjustNow)
// rebalances workers under live traffic by migrating gridt cells when the
// per-worker load imbalance exceeds a threshold.
//
// Minimal usage:
//
//	sys, _ := ps2stream.Open(ps2stream.Options{
//		Region: ps2stream.NewRegion(-125, 24, -66, 49),
//	})
//	defer sys.Close()
//	sys.Subscribe(ps2stream.Subscription{
//		ID:     1,
//		Query:  "coffee AND brooklyn",
//		Region: ps2stream.RegionAround(40.7, -73.95, 10, 10),
//	})
//	sys.Publish(ps2stream.Message{ID: 9, Text: "best coffee in brooklyn", Lat: 40.71, Lon: -73.95})
//
// # Sliding-window top-k subscriptions
//
// Besides boolean delivery ("every match"), the system supports ranked,
// windowed delivery in the style of "Top-k Spatial-keyword
// Publish/Subscribe Over Sliding Window" (Wang et al., arXiv:1611.03204):
// SubscribeTopK registers a subscription that continuously tracks the k
// most relevant messages published within a trailing time window, where
// relevance combines text overlap, spatial proximity to the region
// centre, and recency decay. Like a boolean subscription it ranks only
// messages published after SubscribeTopK returns. Deliveries arrive
// through Options.OnTopK as TopKUpdate events — a message entered the
// subscription's top-k, or left it (displaced by a better one or expired
// out of the window, in which case the next-best live message, already
// held by the worker, takes its place):
//
//	sys, _ := ps2stream.Open(ps2stream.Options{
//		Region: ps2stream.NewRegion(-125, 24, -66, 49),
//		OnTopK: func(u ps2stream.TopKUpdate) { fmt.Println(u.Event, u.MessageID) },
//	})
//	sys.SubscribeTopK(ps2stream.Subscription{
//		ID:     2,
//		Query:  "pizza",
//		Region: ps2stream.RegionAround(40.7, -73.95, 10, 10),
//	}, 10, 5*time.Minute)
//
// Top-k subscriptions ride the same hybrid partitioning and dynamic load
// adjustment as boolean ones; their window state migrates together with
// the gridt cells it belongs to.
package ps2stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"ps2stream/internal/core"
	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
	"ps2stream/internal/obs"
	"ps2stream/internal/partition"
	"ps2stream/internal/textutil"
	"ps2stream/internal/wire"
)

// Region is a rectangular area in degrees.
type Region struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// NewRegion builds a region from longitude/latitude extents (any corner
// order).
func NewRegion(minLon, minLat, maxLon, maxLat float64) Region {
	r := geo.NewRect(minLon, minLat, maxLon, maxLat)
	return Region{MinLat: r.Min.Y, MinLon: r.Min.X, MaxLat: r.Max.Y, MaxLon: r.Max.X}
}

// RegionAround builds a region centred at (lat, lon) with the given side
// lengths in kilometres — the shape of the paper's STS query regions.
func RegionAround(lat, lon, widthKm, heightKm float64) Region {
	r := geo.RectAround(geo.Point{X: lon, Y: lat}, widthKm, heightKm)
	return Region{MinLat: r.Min.Y, MinLon: r.Min.X, MaxLat: r.Max.Y, MaxLon: r.Max.X}
}

func (r Region) rect() geo.Rect {
	return geo.NewRect(r.MinLon, r.MinLat, r.MaxLon, r.MaxLat)
}

// Message is a published spatio-textual object (e.g. a geo-tagged post).
type Message struct {
	// ID identifies the message in delivered matches.
	ID uint64
	// Text is free text; it is tokenised on non-alphanumeric runes.
	Text string
	// Lat/Lon is the message origin.
	Lat, Lon float64
}

// Subscription is a continuous spatio-textual query.
type Subscription struct {
	// ID identifies the subscription; Unsubscribe refers to it. IDs must
	// be unique among live subscriptions.
	ID uint64
	// Query is a boolean keyword expression: "a", "a AND b", "a OR b".
	Query string
	// Region is the area of interest.
	Region Region
	// Subscriber tags deliveries (e.g. a user id).
	Subscriber uint64
}

// Match is a delivery: the message identified by MessageID satisfied the
// subscription identified by SubscriptionID.
type Match struct {
	SubscriptionID uint64
	Subscriber     uint64
	MessageID      uint64
}

// TopKEvent is the kind of a TopKUpdate.
type TopKEvent uint8

// The top-k membership transitions.
const (
	// TopKEntered: the message entered the subscription's top-k.
	TopKEntered TopKEvent = iota
	// TopKLeft: the message left the top-k — displaced by a better
	// message, expired out of the window, or the subscription ended.
	TopKLeft
)

// String implements fmt.Stringer.
func (e TopKEvent) String() string {
	switch e {
	case TopKEntered:
		return "entered"
	case TopKLeft:
		return "left"
	default:
		return fmt.Sprintf("TopKEvent(%d)", uint8(e))
	}
}

// TopKUpdate is a delivery for a sliding-window top-k subscription: the
// message identified by MessageID entered or left the subscription's
// current top-k set. At any quiescent instant the set of messages that
// entered and have not left is exactly the subscription's top-k over the
// trailing window.
type TopKUpdate struct {
	SubscriptionID uint64
	Subscriber     uint64
	MessageID      uint64
	// Score is the message's relevance for the subscription (text overlap
	// × spatial proximity, in (0, 1]), before recency decay.
	Score float64
	// Event says whether the message entered or left the top-k.
	Event TopKEvent
}

// Strategy names a workload distribution algorithm.
type Strategy string

// The hybrid strategy of §IV and the two finalists it is compared against
// in §VI-C: metric text partitioning and kd-tree space partitioning.
const (
	StrategyHybrid Strategy = "hybrid"
	StrategyMetric Strategy = "metric"
	StrategyKDTree Strategy = "kdtree"
)

// builder resolves a Strategy.
func (s Strategy) builder() (partition.Builder, error) {
	switch s {
	case "", StrategyHybrid:
		return hybrid.Builder{}, nil
	case StrategyMetric, StrategyKDTree:
		return partition.Builders()[string(s)], nil
	default:
		return nil, fmt.Errorf("ps2stream: unknown strategy %q", s)
	}
}

// WorkerIndex names the query index each worker maintains. GI2 (§IV-D)
// is the only one: every §V migration moves GI2 cells.
//
// Deprecated: the type and WorkerIndexGI2 survive only because
// benchmark/run.go sets Options.WorkerIndex. Open rejects every value
// other than "" and WorkerIndexGI2.
type WorkerIndex string

// WorkerIndexGI2 is the paper's Grid-Inverted-Index [29].
//
// Deprecated: see WorkerIndex.
const WorkerIndexGI2 WorkerIndex = "gi2"

// Options configures Open.
type Options struct {
	// Region is the monitored space. Required.
	Region Region
	// Workers is the number of worker tasks (default 8). Mergers is the
	// number of hash shares of the duplicate elimination (default 2):
	// each share is a dedup window behind a lock, taken by the worker
	// that found a match, not a task of its own.
	Workers int
	Mergers int
	// Dispatchers is ignored: one dispatcher routes every operation, in
	// Publish/Subscribe/Unsubscribe order. Any value is accepted.
	//
	// Deprecated: the field survives only because benchmark/run.go sets it.
	Dispatchers int
	// BatchSize is the number of operations transferred per internal
	// channel send on every hop of the publish path (default 64). Batches
	// fill adaptively and partial batches flush as soon as a stage goes
	// idle, so a large batch size costs no latency on a quiet stream.
	// 1 disables batching (tuple-at-a-time transfer, the pre-batching
	// engine behaviour); use it when comparing against the batched path.
	BatchSize int
	// Strategy selects the distribution algorithm (default hybrid).
	Strategy Strategy
	// WorkerIndex must be empty or WorkerIndexGI2.
	//
	// Deprecated: every worker runs GI2; see WorkerIndex.
	WorkerIndex WorkerIndex
	// SeedMessages and SeedSubscriptions, when provided, are analysed by
	// the partitioner to fit the strategy to the expected workload. An
	// empty seed still works. With no seed messages the hybrid and kdtree
	// strategies cut Region by geometry into one equal piece per worker,
	// and the metric strategy spreads terms by deterministic hashing.
	// With Adjust on (hybrid only), the controller moves cells as the
	// load shows where they belong.
	SeedMessages      []Message
	SeedSubscriptions []Subscription
	// OnMatch receives every match, each (subscription, message) pair
	// once. Called concurrently from the worker tasks that found the
	// matches: a message that reached only one worker has its matches
	// delivered at once, the others once deduplicated, under the lock of
	// their dedup share; must be fast or hand off to a channel. A panic
	// in it stops the system: blocked publishers return, Flush stops
	// waiting, and Close returns an error naming the panic.
	OnMatch func(Match)
	// OnTopK receives every top-k membership change of SubscribeTopK
	// subscriptions. Called concurrently from worker tasks while internal
	// locks are held: it must be fast, must not block, and must not call
	// back into the System — hand off to a channel for anything heavier.
	OnTopK func(TopKUpdate)
	// Now supplies timestamps for sliding-window processing (publish
	// instants and expiry). Nil uses time.Now; deterministic replays and
	// tests install a fake clock and drive expiry with AdvanceTopK.
	Now func() time.Time
	// RemoteWorkers places worker tasks on remote psnode processes:
	// each address ("host:port") is dialled at Open (with backoff, so a
	// just-started psnode is fine) and serves worker task 0, 1, … in
	// order; Workers is raised to at least len(RemoteWorkers), and any
	// surplus tasks run in-process. The handshake distributes the grid
	// geometry and sampled term statistics so routing agrees across
	// processes. The full API works with remote workers: dynamic load
	// adjustment (Adjust, AdjustNow) and Repartition migrate grid cells
	// between processes over dedicated control frames, the load
	// detector consumes the nodes' own processing counters, and
	// SubscribeTopK subscriptions reconcile through a window-delta
	// stream the nodes push to this process (see docs/WIRE.md). Start
	// a peer with:
	//
	//	psnode -role worker -listen :7101
	RemoteWorkers []string
	// SpareWorkers reserves extra routing slots for workers that join at
	// runtime via System.AddWorker. The grid geometry is sized over
	// Workers+SpareWorkers slots at Open, so a join never repartitions —
	// the new worker starts empty and the controller (or AddWorker's own
	// rebalance) migrates cells onto it. Requires the hybrid strategy;
	// Workers+SpareWorkers must be ≤ 64.
	SpareWorkers int
	// Recovery enables crash detection and automatic recovery for remote
	// workers (see docs/ARCHITECTURE.md, "Membership and recovery").
	Recovery RecoveryOptions
	// Adjust configures the adaptive load adjustment controller (§V):
	// per-worker load is sampled from the live publish traffic, and when
	// the imbalance exceeds Theta the system migrates hot grid cells to
	// the least-loaded worker while the stream keeps flowing.
	Adjust AdjustOptions
	// AdminAddr, when non-empty, starts an HTTP observability server on
	// the address ("host:port"; ":0" picks a free port — read it back
	// with System.AdminAddr). It serves Prometheus-text metrics on
	// /metrics, the same series as JSON on /statsz, liveness plus
	// role/epoch/build info on /healthz, and net/http/pprof under
	// /debug/pprof/. With Options.RemoteWorkers set, a scrape first
	// refreshes the coordinator's mirror of the remote workers'
	// counters, so one scrape of this process reports cluster-wide
	// per-worker loads and op counts. See docs/ARCHITECTURE.md
	// ("Observability").
	AdminAddr string
	// Logger receives the system's structured event trace — most
	// importantly the adjustment controller's decision trace: every
	// detector check (Debug), every trigger and executed migration
	// (Info), and every routing-epoch advance (Debug). Nil disables the
	// trace.
	Logger *slog.Logger
}

// RecoveryOptions configures crash detection and recovery for remote
// workers. With Enabled, the coordinator asks each psnode worker for
// heartbeats, mirrors every routed operation and migration in a bounded
// per-worker op log (truncated by periodic checkpoints that read the
// worker's population), and on a connection failure redials the
// worker's address with backoff and replays the checkpointed population
// plus the log tail — the stream keeps flowing through
// the surviving workers meanwhile, and the dedup windows absorb replay
// duplicates. The checkpoint state lives in this
// process's memory; System.Checkpoint is what writes a population to
// disk.
type RecoveryOptions struct {
	// Enabled turns recovery on. Off (default), a dead remote worker
	// fails the run exactly as before.
	Enabled bool
	// CheckpointInterval is how often each remote worker's population is
	// read as its op log's new base, truncating the log (default 1s). A
	// worker waits nine times its last checkpoint's duration before the
	// next, so a large population is checkpointed less often.
	CheckpointInterval time.Duration
	// HeartbeatInterval is the requested node heartbeat cadence; the
	// coordinator's read deadline is 4× this (default 500ms).
	HeartbeatInterval time.Duration
	// RedialTimeout bounds how long a crashed worker may take to come
	// back before the run is declared unrecoverable (default 45s).
	RedialTimeout time.Duration
}

// AdjustOptions configures the adaptive load adjustment controller
// (hybrid strategy only — migrations move gridt cells).
type AdjustOptions struct {
	// Auto runs the controller continuously in the background: every
	// Interval it samples per-worker load from the worker tasks' live
	// traffic (smoothed with an EWMA), and when the load imbalance has
	// exceeded Theta for two consecutive intervals (hysteresis) and the
	// Cooldown since the previous adjustment has elapsed, it migrates
	// hot cells from the most to the least loaded worker. With Auto
	// false the system only adjusts on explicit AdjustNow calls.
	Auto bool
	// Interval is the load sampling/decision period (default 200ms).
	Interval time.Duration
	// Theta is the imbalance trigger threshold on L_max/L_min, the
	// paper's balance constraint σ (default 1.25; must be > 1).
	Theta float64
	// Cooldown is the minimum time between adjustments, letting a
	// migration's effect show up in the smoothed loads before the next
	// decision (default 4×Interval).
	Cooldown time.Duration
}

// AdjustStats reports the adaptive adjustment controller's activity (see
// Stats.Adjust).
type AdjustStats struct {
	// Auto reports whether the background controller is running.
	Auto bool
	// Epoch counts routing-table changes executed so far — one per
	// migrated cell share, so it can exceed Migrations (a Phase II
	// migration record covers every cell of one selection).
	Epoch uint64
	// Checks counts load evaluations; Triggers counts the ones that ran
	// an adjustment; ManualTriggers counts AdjustNow-initiated
	// adjustments; SustainSkips and CooldownSkips count imbalance
	// violations suppressed by hysteresis and cooldown.
	Checks         int64
	Triggers       int64
	ManualTriggers int64
	SustainSkips   int64
	CooldownSkips  int64
	// LastAdjust is when the latest adjustment ran (zero when none has).
	LastAdjust time.Time
	// EWMALoads is the controller's smoothed per-worker load estimate;
	// Imbalance is max/min over it — the value compared against Theta.
	EWMALoads []float64
	Imbalance float64
	// Migrations counts executed cell migrations; CellsMoved,
	// QueriesMoved and BytesMoved aggregate what they carried.
	Migrations   int
	CellsMoved   int
	QueriesMoved int
	BytesMoved   int64
}

// System is a running publish/subscribe instance.
type System struct {
	inner  *core.System
	admin  *obs.Server
	closed bool
}

// Open builds and starts a system.
func Open(opts Options) (*System, error) {
	b, err := opts.Strategy.builder()
	if err != nil {
		return nil, err
	}
	if opts.WorkerIndex != "" && opts.WorkerIndex != WorkerIndexGI2 {
		return nil, fmt.Errorf("ps2stream: unknown worker index %q", opts.WorkerIndex)
	}
	bounds := opts.Region.rect()
	if !bounds.Valid() || bounds.Area() == 0 {
		return nil, errors.New("ps2stream: Options.Region must be a non-empty area")
	}
	objs := make([]*model.Object, 0, len(opts.SeedMessages))
	for i := range opts.SeedMessages {
		objs = append(objs, opts.SeedMessages[i].toObject())
	}
	qrys := make([]*model.Query, 0, len(opts.SeedSubscriptions))
	for i := range opts.SeedSubscriptions {
		q, err := opts.SeedSubscriptions[i].toQuery()
		if err != nil {
			return nil, fmt.Errorf("ps2stream: seed subscription %d: %w", opts.SeedSubscriptions[i].ID, err)
		}
		qrys = append(qrys, q)
	}
	sample := partition.NewSample(objs, qrys, bounds, load.DefaultCosts)
	var onMatch func(model.Match)
	if opts.OnMatch != nil {
		user := opts.OnMatch
		onMatch = func(m model.Match) {
			user(Match{SubscriptionID: m.QueryID, Subscriber: m.Subscriber, MessageID: m.ObjectID})
		}
	}
	var onTopK func(core.TopKUpdate)
	if opts.OnTopK != nil {
		user := opts.OnTopK
		onTopK = func(u core.TopKUpdate) {
			ev := TopKLeft
			if u.Entered {
				ev = TopKEntered
			}
			user(TopKUpdate{
				SubscriptionID: u.QueryID,
				Subscriber:     u.Subscriber,
				MessageID:      u.MsgID,
				Score:          u.Score,
				Event:          ev,
			})
		}
	}
	cfg := core.Config{
		Workers:   opts.Workers,
		Mergers:   opts.Mergers,
		BatchSize: opts.BatchSize,
		Builder:   b,
		OnMatch:   onMatch,
		OnTopK:    onTopK,
		Clock:     opts.Now,
		Logger:    opts.Logger,
	}
	cfg.Adjust = core.AdjustConfig{
		Enabled:  opts.Adjust.Auto,
		Interval: opts.Adjust.Interval,
		Sigma:    opts.Adjust.Theta,
		Cooldown: opts.Adjust.Cooldown,
	}
	// Membership options must be on the config before the workers are
	// dialled: the handshake hello carries the total slot count (spares
	// included) and the heartbeat request.
	cfg.SpareWorkers = opts.SpareWorkers
	cfg.Recovery = core.RecoveryConfig{
		Enabled:            opts.Recovery.Enabled,
		CheckpointInterval: opts.Recovery.CheckpointInterval,
		HeartbeatInterval:  opts.Recovery.HeartbeatInterval,
		RedialTimeout:      opts.Recovery.RedialTimeout,
	}
	if err := cfg.ConnectRemoteWorkers(opts.RemoteWorkers, sample, wire.Backoff{}); err != nil {
		return nil, fmt.Errorf("ps2stream: %w", err)
	}
	inner, err := core.New(cfg, sample)
	if err != nil {
		for _, tr := range cfg.RemoteWorkers {
			tr.Close()
		}
		return nil, err
	}
	if err := inner.Start(context.Background()); err != nil {
		for _, tr := range cfg.RemoteWorkers {
			tr.Close()
		}
		return nil, err
	}
	sys := &System{inner: inner}
	if opts.AdminAddr != "" {
		admin, err := obs.Serve(opts.AdminAddr, obs.Options{
			Registry: inner.Registry(),
			Role:     "dispatcher",
			Epoch:    inner.RouteEpoch,
			// A scrape of the coordinator reports the whole cluster:
			// fold the remote workers' counters into the registry's
			// mirror first (rate-limited so concurrent scrapes do not
			// stack wire round-trips).
			BeforeScrape: func() { inner.RefreshWorkerStats(500 * time.Millisecond) },
		})
		if err != nil {
			_ = inner.Close()
			return nil, fmt.Errorf("ps2stream: admin server: %w", err)
		}
		sys.admin = admin
	}
	return sys, nil
}

// toObject builds the object of a seed or Repartition sample message:
// the partitioner reads its terms, so they are made here.
func (m *Message) toObject() *model.Object {
	return &model.Object{
		ID:    m.ID,
		Terms: textutil.Tokenize(m.Text),
		Loc:   geo.Point{X: m.Lon, Y: m.Lat},
	}
}

func (s *Subscription) toQuery() (*model.Query, error) {
	expr, err := model.ParseExpr(s.Query)
	if err != nil {
		return nil, err
	}
	return &model.Query{
		ID:         s.ID,
		Expr:       expr,
		Region:     s.Region.rect(),
		Subscriber: s.Subscriber,
	}, nil
}

// Publish submits a message for matching: against every subscription
// whose Subscribe returned before this call, and against none whose
// Unsubscribe returned before it. It blocks under backpressure; a
// Publish that is blocked when Close is called, or follows it, returns
// without submitting.
//
// The message's text is not tokenised here: the dispatcher reads it once,
// straight to term ids (model.Object.Text).
func (s *System) Publish(m Message) {
	o := &model.Object{ID: m.ID, Text: m.Text, Loc: geo.Point{X: m.Lon, Y: m.Lat}}
	s.inner.Submit(model.Op{Kind: model.OpObject, Obj: o})
}

// Subscribe registers a continuous query. Once Subscribe returns, every
// later Publish is matched against it; matches are delivered
// asynchronously through Options.OnMatch.
func (s *System) Subscribe(sub Subscription) error {
	q, err := sub.toQuery()
	if err != nil {
		return err
	}
	s.inner.Submit(model.Op{Kind: model.OpInsert, Query: q})
	return nil
}

// SubscribeTopK registers a sliding-window top-k subscription: the system
// continuously maintains the k most relevant messages published within
// the trailing window that match the subscription's boolean expression
// and region, and reports membership changes through Options.OnTopK.
// Relevance is text overlap × proximity to the region centre × recency
// decay. The subscription ranks only messages published after
// SubscribeTopK returns, never earlier ones still inside the window: the
// history rule boolean subscriptions follow. Unsubscribe ends the
// subscription like a boolean one.
//
// Top-k subscriptions work with Options.RemoteWorkers: each node folds
// its window updates into delta batches that reconcile on this
// process's global top-k board (see docs/ARCHITECTURE.md).
func (s *System) SubscribeTopK(sub Subscription, k int, window time.Duration) error {
	if k < 1 {
		return fmt.Errorf("ps2stream: SubscribeTopK k must be >= 1, got %d", k)
	}
	if window <= 0 {
		return fmt.Errorf("ps2stream: SubscribeTopK window must be positive, got %v", window)
	}
	q, err := sub.toQuery()
	if err != nil {
		return err
	}
	q.TopK = k
	q.Window = window
	s.inner.Submit(model.Op{Kind: model.OpInsert, Query: q})
	return nil
}

// TopKSet returns the subscription's current top-k message ids in
// ascending id order (empty when the subscription holds nothing). It is a
// point-in-time view; Flush first for a quiescent read.
func (s *System) TopKSet(subscriptionID uint64) []uint64 {
	return s.inner.TopKSet(subscriptionID)
}

// AdvanceTopK forces one synchronous window-expiry sweep: entries older
// than their subscription's window fall out of every top-k, and the
// next-ranked entries each worker already holds move up in their place.
// The system runs this sweep
// periodically on its own; explicit calls are for deterministic tests and
// replays driving a fake Options.Now clock.
func (s *System) AdvanceTopK() {
	s.inner.AdvanceWindows()
}

// Unsubscribe drops a subscription. Once Unsubscribe returns, no later
// Publish is delivered to it; matches of earlier Publishes may still
// arrive. The full subscription is required (§III-B: deletion requests
// carry the complete query so the dispatcher can route them).
func (s *System) Unsubscribe(sub Subscription) error {
	q, err := sub.toQuery()
	if err != nil {
		return err
	}
	s.inner.Submit(model.Op{Kind: model.OpDelete, Query: q})
	return nil
}

// Repartition begins a global load adjustment (§V-B): a fresh instance of
// the configured distribution strategy is fitted to the given sample of
// recent traffic and installed alongside the current one. Existing
// subscriptions keep routing through the old strategy until their
// population decays, then migrate over automatically (with dynamic
// adjustment enabled) or on the next Repartition call. Objects route
// through both strategies during the transition, so no match is lost.
//
// Call it when the traffic distribution has drifted from the sample the
// system was opened with — the paper suggests checking about once per day.
func (s *System) Repartition(recentMessages []Message, recentSubscriptions []Subscription) error {
	objs := make([]*model.Object, 0, len(recentMessages))
	for i := range recentMessages {
		objs = append(objs, recentMessages[i].toObject())
	}
	qrys := make([]*model.Query, 0, len(recentSubscriptions))
	for i := range recentSubscriptions {
		q, err := recentSubscriptions[i].toQuery()
		if err != nil {
			return fmt.Errorf("ps2stream: repartition sample subscription %d: %w",
				recentSubscriptions[i].ID, err)
		}
		qrys = append(qrys, q)
	}
	sample := partition.NewSample(objs, qrys, s.inner.Bounds(), load.DefaultCosts)
	return s.inner.GlobalRepartition(sample, nil)
}

// AdjustNow forces one synchronous load adjustment evaluation: if the
// current per-worker load imbalance violates Adjust.Theta, hot cells
// migrate to the least-loaded worker before AdjustNow returns, bypassing
// the background controller's hysteresis and cooldown (whose cooldown
// then restarts). It returns the number of migrations executed — 0 when
// the system is already balanced, and always 0 for strategies other than
// hybrid, which cannot migrate.
//
// Use it when the caller knows the workload just shifted (a planned
// failover, a flash event) and waiting out the controller's detection
// latency is undesirable — or to drive adjustment entirely manually with
// Adjust.Auto off.
func (s *System) AdjustNow() int {
	return s.inner.AdjustNow()
}

// AddWorker joins a freshly started psnode worker (addr "host:port")
// into the running system, claiming one of the Options.SpareWorkers
// routing slots. The node is dialled with backoff, handed the grid
// geometry, and an immediate rebalance migrates cells onto it so it
// starts pulling load right away. It returns the worker task number the
// node now serves (usable with DecommissionWorker), or an error when no
// spare slot is free (core.ErrNoSpareSlots) or the dial fails.
func (s *System) AddWorker(addr string) (int, error) {
	return s.inner.AddWorker(addr)
}

// DecommissionWorker gracefully retires a remote worker slot: every
// cell it serves migrates to the remaining active workers (matches keep
// flowing throughout), the node is drained, and the connection closes
// cleanly. The slot is not reusable afterwards; size SpareWorkers for
// the cluster's full membership churn. Decommissioning the last active
// remote worker is refused.
func (s *System) DecommissionWorker(task int) error {
	return s.inner.DecommissionWorker(task)
}

// FinishRepartition completes an in-flight global repartition immediately,
// relocating the remaining old-strategy subscriptions. It returns the
// number relocated (0 when no repartition is in flight). Systems with
// Adjust.Auto finish automatically once the old population decays;
// others can call this explicitly.
func (s *System) FinishRepartition() int {
	return s.inner.FinishGlobalRepartition()
}

// Checkpoint writes the live subscription population of every worker,
// in-process or remote, to w in the snapshot format, deduplicated and in
// ascending subscription-id order. The set is a point-in-time view; call
// Flush first (and pause Subscribe/Unsubscribe traffic) for an exact cut.
// The published message stream is stateless and is not captured. A
// worker that cannot answer fails the checkpoint.
func (s *System) Checkpoint(w io.Writer) error {
	_, err := s.inner.Checkpoint(w)
	return err
}

// ErrBoundsMismatch is returned by Restore when the snapshot was taken
// over a different monitored region than this system's Options.Region.
// Grid cell ids are relative to the region, so restoring across regions
// would register subscriptions into the wrong cells — they would never
// match. Open a system with the snapshot's region (the error message
// carries both rectangles) and restore there.
var ErrBoundsMismatch = core.ErrBoundsMismatch

// Restore re-registers every subscription from a snapshot produced by
// Checkpoint, routing them through the dispatcher like fresh Subscribe
// calls. It returns the number of subscriptions restored. The snapshot
// header's bounds must equal this system's region (ErrBoundsMismatch
// otherwise). Restoring onto a system that already holds some of the
// ids is safe (workers ignore duplicate registrations). Snapshots written
// by earlier builds (format versions 1 and 2) still load.
func (s *System) Restore(r io.Reader) (int, error) {
	return s.inner.Restore(r)
}

// Flush blocks until every Publish, Subscribe, SubscribeTopK, Unsubscribe
// and Restore that returned before the call is fully applied end to end:
// routed by the dispatcher, applied by every worker (in process or on a
// remote psnode), and every match those operations produced delivered —
// including OnMatch callbacks, which have returned by the time Flush
// does. Stats().Matches read after Flush is therefore exact
// for the flushed operations, on any machine, at any load. Flush covers
// only those operations: it returns while other goroutines keep
// publishing.
func (s *System) Flush() {
	// The barrier errors only when the run stopped or a remote worker is
	// lost; that failure also surfaces from Close.
	_ = s.inner.Drain()
}

// Stats summarises system metrics.
type Stats struct {
	Processed       int64
	Matches         int64
	Discarded       int64
	MeanLatency     time.Duration
	P99Latency      time.Duration
	ThroughputTPS   float64
	WorkerQueries   []int
	DispatcherBytes int64
	Migrations      int
	// WorkerLoads is each worker slot's Definition-1 load (spares
	// included): the operations its engine processed since the adaptive
	// controller last measured a load window, or since Open if it never
	// has.
	// BalanceFactor is L_max/L_min over the member workers' loads, the
	// paper's σ constraint: 1 when balanced or when every member is
	// idle, and a member with zero load counts as 1e-9. Idle spares and
	// retired workers are not members.
	WorkerLoads   []float64
	BalanceFactor float64
	// Adjust reports the adaptive adjustment controller's activity and
	// its smoothed view of the worker loads.
	Adjust AdjustStats
}

// Stats captures current metrics. A remote worker's counts are its reply
// to a stats round at most 500ms old.
func (s *System) Stats() Stats {
	s.inner.RefreshWorkerStats(500 * time.Millisecond)
	snap := s.inner.Snapshot()
	return Stats{
		Processed:       snap.Processed,
		Matches:         snap.Matches,
		Discarded:       snap.Discarded,
		MeanLatency:     snap.Latency.Mean,
		P99Latency:      snap.Latency.P99,
		ThroughputTPS:   snap.ThroughputTPS,
		WorkerQueries:   s.inner.WorkerQueryCounts(),
		DispatcherBytes: snap.DispatcherBytes,
		Migrations:      len(snap.Migrations),
		WorkerLoads:     snap.WorkerLoads,
		BalanceFactor:   snap.BalanceFactor,
		Adjust: AdjustStats{
			Auto:           snap.Adjust.Enabled,
			Epoch:          snap.Adjust.Epoch,
			Checks:         snap.Adjust.Checks,
			Triggers:       snap.Adjust.Triggers,
			ManualTriggers: snap.Adjust.ManualTriggers,
			SustainSkips:   snap.Adjust.SustainSkips,
			CooldownSkips:  snap.Adjust.CooldownSkips,
			LastAdjust:     snap.Adjust.LastAdjust,
			EWMALoads:      snap.Adjust.EWMALoads,
			Imbalance:      snap.Adjust.Imbalance,
			Migrations:     snap.Adjust.Migrations,
			CellsMoved:     snap.Adjust.CellsMoved,
			QueriesMoved:   snap.Adjust.QueriesMoved,
			BytesMoved:     snap.Adjust.BytesMoved,
		},
	}
}

// SubscriptionCount returns the number of live subscriptions currently
// held, deduplicated across every worker, in-process or remote. A remote
// worker that cannot answer (its connection is down) is not counted.
func (s *System) SubscriptionCount() int {
	qs, _ := s.inner.LiveQueries()
	return len(qs)
}

// AdminAddr returns the bound address of the observability server, or ""
// when Options.AdminAddr was not set.
func (s *System) AdminAddr() string {
	if s.admin == nil {
		return ""
	}
	return s.admin.Addr()
}

// Close drains every operation accepted so far and stops the system. A
// Publish, Subscribe or Unsubscribe still blocked under backpressure
// returns without submitting.
func (s *System) Close() error {
	if s.closed {
		return errors.New("ps2stream: already closed")
	}
	s.closed = true
	if s.admin != nil {
		_ = s.admin.Close()
	}
	return s.inner.Close()
}

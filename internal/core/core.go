// Package core wires PS2Stream together: dispatcher and worker tasks on
// typed channels (§III-B, Figure 1), the workload-distribution
// assignment on the dispatcher, GI2 indexes on the workers, and the
// dynamic load adjustment controller of §V. The mergers' duplicate
// elimination is a set of locked dedup windows that the worker finding a
// match takes itself. The whole publish path is batch-oriented: Submit
// appends to the one ingest FIFO, the dispatcher pulls whole buffers
// from it, and operations move to the workers as pooled typed slices of
// up to Config.BatchSize envelopes ([]wire.OpEnv), amortising channel
// sends, lock acquisitions and clock reads over whole batches.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/gi2"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/load"
	"ps2stream/internal/metrics"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/snapshot"
	"ps2stream/internal/termtab"
	"ps2stream/internal/textutil"
	"ps2stream/internal/wire"
	"ps2stream/internal/worker"
)

// DefaultBatchSize is the tuples-per-channel-send default of the batched
// publish path (Config.BatchSize).
const DefaultBatchSize = 64

// defaultWorkers is the worker-task default of Config.fillDefaults,
// shared with ConnectRemoteWorkers (which must size against the default
// before New applies it).
const defaultWorkers = 8

// Config describes a PS2Stream deployment. The zero value is completed by
// New with the paper's defaults (8 workers, 2 mergers, 2^6 × 2^6 grid
// granularity, hybrid partitioning). Unlike the paper's Figure 1, one
// dispatcher task routes every operation, in Submit order.
type Config struct {
	// Workers is the number of worker tasks (m in Definition 2).
	Workers int
	// Mergers is the number of mergers: hash shares of the matches that
	// can repeat (mergerOf), each a dedup window behind a lock that the
	// producer of a match takes, not a task.
	Mergers int
	// Granularity is the per-axis grid resolution of GI2 and gridt.
	Granularity int
	// QueueCap bounds, in tuples, each worker's input queue (rounded
	// down to whole transfer batches, minimum one batch) and the
	// operations Submit may have waiting for the dispatcher (minimum one
	// batch), beside the buffer the dispatcher is routing. A Submit to a
	// full ingest blocks (backpressure).
	QueueCap int
	// BatchSize is the capacity of the typed operation batches that move
	// from the dispatcher to the workers, one batch per channel send, and
	// the number of operations the dispatcher routes per chunk. Batches
	// fill adaptively: the dispatcher emits partial batches as soon as
	// its input goes idle and a worker delivers the matches of every
	// input batch before it takes the next, so batching costs no latency
	// on a quiet stream. 1 means unbatched
	// (one envelope per send); 0 uses DefaultBatchSize.
	BatchSize int
	// Builder constructs the workload distribution strategy; nil uses
	// hybrid partitioning.
	Builder partition.Builder
	// Adjust configures dynamic load adjustment (§V); zero = disabled.
	Adjust AdjustConfig
	// OnMatch, when set, receives every match delivered in this process,
	// each (query, object) pair once. It is called concurrently from the
	// tasks that found the matches (in-process workers, and the readers of
	// remote workers' match streams): the matches that cannot repeat at
	// once, the others under their merger's lock once deduplicated. A
	// panic in it stops the run: parked Submits return, Drain fails, and
	// Close returns an error naming the panic.
	OnMatch func(model.Match)
	// OnTopK, when set, receives every global top-k membership change of
	// the sliding-window top-k subscriptions. It is called from worker
	// tasks while internal locks are held: it must be fast and must not
	// call back into the System.
	OnTopK func(TopKUpdate)
	// Clock supplies timestamps for window/top-k processing; nil uses
	// time.Now. Tests install a fake clock for deterministic expiry.
	Clock func() time.Time
	// WindowTick is the period of the eager window-expiry sweep
	// (default 50ms).
	WindowTick time.Duration
	// DedupWindow bounds each merger's duplicate-elimination memory in
	// (query, object) pairs. A merger allocates its window when its first
	// match arrives, so a merger that receives none holds none. Matches of
	// an object that was routed to a single in-process worker cannot
	// repeat: that worker delivers them, and no window sees them.
	DedupWindow int
	// PerTupleWork simulates the per-received-tuple cost a real cluster
	// pays (deserialisation + network receive) at each worker. Zero for
	// in-process use; the experiment harness sets a few microseconds so
	// that tuple duplication carries the same economics as on the
	// paper's Storm deployment (docs/ARCHITECTURE.md, "Deployment:
	// processes and the wire").
	PerTupleWork time.Duration
	// RemoteWorkers places worker tasks out-of-process: task index →
	// session with the psnode running it (ConnectRemoteWorkers dials
	// and fills this). Tasks not listed run in-process as usual. Every
	// operation works for either placement: a remote slot runs the same
	// worker engine, and load adjustment, GlobalRepartition and
	// sliding-window top-k reach it through the same control rounds
	// (docs/WIRE.md) an in-process slot serves as function calls.
	RemoteWorkers map[int]*wire.WorkerClient
	// SpareWorkers pre-allocates this many extra worker slots beyond
	// Workers for runtime joins (System.AddWorker): routing bitmasks
	// and per-slot accounting are fixed-width, so elastic capacity is
	// reserved at build time. Requires the hybrid strategy, and
	// Workers+SpareWorkers must stay within the routing mask width (64).
	SpareWorkers int
	// Recovery configures crash recovery of remote worker slots
	// (op-log replay onto a redialled session); zero = disabled, and a
	// broken worker connection fails the run loudly as before.
	Recovery RecoveryConfig
	// Logger receives the structured operational trace — most notably
	// the adjustment controller's decision log: every detector verdict
	// (Debug), every trigger and migration (Info), and routing-epoch
	// advances (Debug). nil disables the trace entirely.
	Logger *slog.Logger
}

// AdjustConfig tunes the adaptive load adjustment controller: a
// background loop that samples per-worker load from the live publish
// traffic (windowed EWMA over the worker bolts' op counters), detects
// imbalance (θ threshold + hysteresis + cooldown), and migrates gridt
// cells from the most to the least loaded worker while the stream keeps
// flowing.
type AdjustConfig struct {
	// Enabled switches the background controller on. Requires the hybrid
	// strategy (the gridt index is the unit of migration). Manual
	// System.AdjustNow calls work whenever the strategy is hybrid,
	// regardless of Enabled.
	Enabled bool
	// Sigma is the balance constraint σ (the detector's θ threshold): a
	// window with L_max/L_min > Sigma counts as an imbalance violation.
	Sigma float64
	// Interval is the load-check period.
	Interval time.Duration
	// Cooldown is the minimum time between adjustments; after a
	// migration the controller stays quiet for this long so the moved
	// load shows up in the smoothed measurements before the next
	// decision (default 4×Interval).
	Cooldown time.Duration
	// SustainChecks is the detector's hysteresis: an imbalance must
	// persist for this many consecutive intervals before an adjustment
	// runs, so one noisy window cannot trigger a migration (default 2).
	SustainChecks int
	// MinWindowOps suppresses adjustment decisions on windows with too
	// few routed operations to be statistically meaningful.
	MinWindowOps int64
}

// loadEWMAAlpha smooths the controller's per-interval worker loads:
// avg ← α·sample + (1−α)·avg.
const loadEWMAAlpha = 0.5

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers
	}
	if c.Mergers <= 0 {
		c.Mergers = 2
	}
	if c.Granularity <= 0 {
		c.Granularity = grid.DefaultGranularity
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.Builder == nil {
		c.Builder = hybrid.Builder{}
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 1 << 15
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.WindowTick <= 0 {
		c.WindowTick = 50 * time.Millisecond
	}
	// Adjustment defaults are always filled: AdjustNow works in manual
	// mode (Enabled false) whenever the strategy supports migration.
	if c.Adjust.Sigma <= 1 {
		c.Adjust.Sigma = 1.25
	}
	if c.Adjust.Interval <= 0 {
		c.Adjust.Interval = 200 * time.Millisecond
	}
	if c.Adjust.Cooldown <= 0 {
		c.Adjust.Cooldown = 4 * c.Adjust.Interval
	}
	if c.Adjust.SustainChecks <= 0 {
		c.Adjust.SustainChecks = 2
	}
	if c.SpareWorkers < 0 {
		c.SpareWorkers = 0
	}
	if c.Adjust.MinWindowOps <= 0 {
		c.Adjust.MinWindowOps = 256
	}
	c.Recovery.fillDefaults()
}

// MigrationStat records one executed migration.
type MigrationStat struct {
	SelectionTime time.Duration
	Duration      time.Duration
	Bytes         int64
	Cells         int
	QueriesMoved  int
	From, To      int
	PhaseI        bool
}

// AdjustStats summarises the adaptive adjustment controller's activity
// and its current smoothed view of the cluster.
type AdjustStats struct {
	// Enabled reports whether the background controller loop is running.
	Enabled bool
	// Epoch counts routing-table flips executed so far — one per
	// migrated cell share, so it can exceed Migrations: a Phase II
	// MigrationStat covers every cell of one selection.
	Epoch uint64
	// Checks counts detector evaluations; Triggers counts the ones that
	// ran an adjustment. SustainSkips and CooldownSkips count violations
	// suppressed by hysteresis and cooldown; ManualTriggers counts
	// AdjustNow-initiated adjustments.
	Checks         int64
	Triggers       int64
	ManualTriggers int64
	SustainSkips   int64
	CooldownSkips  int64
	// LastAdjust is the wall-clock instant of the latest adjustment
	// (zero when none ran yet).
	LastAdjust time.Time
	// EWMALoads is the controller's smoothed Definition-1 load per
	// worker, fed from the worker bolts' per-interval op counts;
	// Imbalance is max/min over them (the detector's input).
	EWMALoads []float64
	Imbalance float64
	// Migrations/CellsMoved/QueriesMoved/BytesMoved aggregate the
	// executed migrations.
	Migrations   int
	CellsMoved   int
	QueriesMoved int
	BytesMoved   int64
}

// Snapshot is a point-in-time view of system metrics.
type Snapshot struct {
	Processed  int64
	Discarded  int64
	Matches    int64
	Duplicates int64
	// SoloMatches counts the Matches delivered without a merger's dedup
	// window: their object was routed to exactly one in-process worker,
	// and their merger runs in this process.
	SoloMatches   int64
	ThroughputTPS float64
	Latency       metrics.Snapshot
	MatchLatency  metrics.Snapshot
	// WorkerLoads is each slot's Definition-1 load over the load window
	// (windowLoads), spares included; BalanceFactor is their balance
	// over the member slots (balance).
	WorkerLoads   []float64
	BalanceFactor float64
	// DispatcherBytes estimates routing-structure memory (Figure 9),
	// the coordinator's term dictionary included.
	DispatcherBytes int64
	// WorkerBytes estimates per-worker GI2 memory (Figure 10). The term
	// dictionary an in-process GI2 shares with the dispatcher is counted
	// in DispatcherBytes only.
	WorkerBytes []int64
	Migrations  []MigrationStat
	// Adjust reports the adaptive adjustment controller's state.
	Adjust AdjustStats
	// Stages summarises per-batch processing time at each topology
	// stage (StageDispatch/StageWorker/StageMerge), the "where does
	// time go" breakdown benchmark reports embed.
	Stages map[string]metrics.Snapshot
}

// System is a running PS2Stream instance.
type System struct {
	cfg    Config
	bounds geo.Rect
	assign atomic.Value // partition.Assignment (swapped by global adjustment)
	gridT  atomic.Pointer[hybrid.GridT]
	// dict is the coordinator's one term dictionary: gridt routes by its
	// ids and every in-process slot's GI2 indexes by them, so the
	// dispatcher looks an object's terms up once (wire.OpEnv.TermIDs).
	// A query's terms are interned before any object that must meet the
	// query is routed (intern).
	dict *termtab.Dict

	// bolts holds each in-process worker slot's bolt, built with its
	// engine in New; nil entries for out-of-process slots, which have a
	// hop (hops) instead. Spares included.
	bolts []*workerBolt
	// resolve is set when some slot runs in this process (some bolt is
	// not nil), so some engine reads an object's term ids: the
	// dispatcher then reads an object's text straight to ids. With every
	// slot remote, Submit tokenises the text on the caller's goroutine,
	// and the dispatcher routes by the terms.
	resolve bool
	// ingest is the one FIFO from Submit to the dispatcher (ingest.go).
	ingest *ingestQueue
	// ingestBlocked counts the times a Submit parked on a full ingest.
	ingestBlocked metrics.Counter
	// towork holds each worker slot's input channel, spares included
	// (topology.go), and opBatches recycles the typed batches they carry.
	// shards holds each merger's dedup window and lock.
	towork    []chan msg
	opBatches batchPool
	shards    []dedupShard

	runErr  chan error
	started atomic.Bool
	closed  atomic.Bool
	// stopped closes when run returns — including a stop by a task panic —
	// so Drain can fail fast instead of waiting on a stopped topology.
	stopped chan struct{}
	cancel  context.CancelFunc
	// runCtx is the run's context once Start installs it (recovery
	// waits under it).
	runCtx context.Context

	// hops is the elastic-membership slot table: one workerHop per
	// out-of-process worker slot (including unclaimed spares), nil
	// entries for in-process slots, and a nil slice for deployments
	// with neither remote workers nor spares. See membership.go.
	hops []*workerHop
	// remoteHello is the handshake template runtime joins dial with
	// (bounds and geometry — everything but Task/Epoch).
	remoteHello wire.Hello

	// Metrics. The counters from processed to matchesEmitted are written
	// by the dispatcher and worker tasks on every batch, and the
	// fields around them are read on every batch. A cache line of padding
	// on each side keeps the two apart whatever the fields before them
	// add up to: when a 32-byte shift in Config put the histogram
	// pointers on a line with these counters, the benchmark's
	// match_heavy workload lost about 13 % of its capacity (2 vCPU).
	_          cacheLinePad
	processed  metrics.Counter
	discarded  metrics.Counter
	matches    metrics.Counter
	duplicates metrics.Counter
	// soloMatches counts the matches delivered without a window
	// (emitMatches); mergerIn counts every match that went to a merger,
	// local or remote (merge); matchesEmitted counts match envelopes emitted
	// by the in-process worker bolts, delivered or sent on.
	soloMatches    metrics.Counter
	mergerIn       metrics.Counter
	matchesEmitted metrics.Counter
	_              cacheLinePad
	latency        atomic.Pointer[metrics.Histogram]
	matchLat       atomic.Pointer[metrics.Histogram]
	tput           *metrics.Throughput

	// Observability (see obs.go). registry exposes every counter above
	// through /metrics and /statsz; the stage histograms record
	// per-batch processing time at each topology stage; log carries the
	// structured operational trace (never nil — a discard handler
	// stands in when Config.Logger is unset).
	registry   *metrics.Registry
	stageDisp  *metrics.Histogram
	stageWork  *metrics.Histogram
	stageMerge *metrics.Histogram
	log        *slog.Logger

	// statsAt rate-limits RefreshWorkerStats (obs.go).
	statsMu sync.Mutex
	statsAt time.Time

	// enqueued/doneOps count operations routed to each slot / finished
	// by its task, processed in process or handed to the wire (never
	// reset). Only the coordinator sees these: their difference is the
	// slot's in-flight gauge, and doneOps is what the worker bolt has
	// finished (ps2_bolt_processed_total, WorkerOpCounts).
	enqueued []atomic.Int64
	doneOps  []atomic.Int64

	// Adaptive controller state. adjustMu serialises the background loop
	// and AdjustNow; detector is owned under it. loadEWMA
	// values are atomically readable for Snapshot.
	adjustMu sync.Mutex
	// prevWork holds each slot's processed-op counts (lastStats) as the
	// controller last committed them: the start of the load window
	// (windowLoads), nil before the first commit. Scrapes and Snapshot
	// read it beside the controller, which swaps in a whole new slice.
	prevWork atomic.Pointer[[]wire.StatsReply]
	loadEWMA []*metrics.EWMA
	detector *load.Detector

	// routeEpoch counts the routing-table flips of migrations.
	routeEpoch atomic.Uint64

	// Controller activity counters (AdjustStats).
	adjChecks    metrics.Counter
	adjTriggers  metrics.Counter
	adjManual    metrics.Counter
	adjSustains  metrics.Counter
	adjCooldowns metrics.Counter
	lastAdjustNs atomic.Int64

	migMu      sync.Mutex
	migrations []MigrationStat

	// globalMu serialises the two ends of a global repartition; the
	// dual assignment in assign is the one record of a repartition in
	// progress (dualAssign).
	globalMu sync.Mutex

	// board reconciles worker-local top-k memberships into each
	// subscription's global top-k (see topk.go).
	board *topkBoard

	// lost records the first hop to fail for good; Drain waits on it.
	lost lostSlots
	rank *textutil.Stats // New's sample: keyFirst's ranking for the system's life
}

// now reads the configured clock.
// cacheLinePad fills one cache line, so the fields on either side of it
// never share one.
type cacheLinePad [64]byte

func (s *System) now() time.Time { return s.cfg.Clock() }

// ErrAdjustNeedsHybrid is returned when dynamic adjustment is requested
// with a non-hybrid distribution strategy.
var ErrAdjustNeedsHybrid = errors.New("core: dynamic load adjustment requires the hybrid (gridt) strategy")

// New builds a system: the Builder analyses the sample and the workers'
// GI2 indexes are created over the sample's bounds. The sample's term
// statistics rank the registration keys the dispatcher orders every
// query by.
func New(cfg Config, sample *partition.Sample) (*System, error) {
	cfg.fillDefaults()
	if sample == nil {
		return nil, errors.New("core: nil workload sample")
	}
	a, err := cfg.Builder.Build(sample, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: building %s assignment: %w", cfg.Builder.Name(), err)
	}
	s := &System{
		cfg:     cfg,
		bounds:  sample.Bounds,
		tput:    metrics.NewThroughput(),
		runErr:  make(chan error, 1),
		stopped: make(chan struct{}),
		lost:    lostSlots{done: make(chan struct{})},
		dict:    new(termtab.Dict),
		rank:    cmp.Or(sample.Stats, textutil.NewStats()),
	}
	s.ingest = newIngestQueue(max(cfg.QueueCap, cfg.BatchSize), cfg.BatchSize, &s.ingestBlocked)
	s.opBatches.size = cfg.BatchSize
	s.latency.Store(metrics.NewHistogram(nil))
	s.matchLat.Store(metrics.NewHistogram(nil))
	s.assign.Store(assignBox{a})
	if gt, ok := a.(*hybrid.GridT); ok {
		gt.UseDict(s.dict)
		s.gridT.Store(gt)
	}
	if cfg.Adjust.Enabled && s.gridT.Load() == nil {
		return nil, ErrAdjustNeedsHybrid
	}
	if cfg.SpareWorkers > 0 {
		if s.gridT.Load() == nil {
			// A joined spare only ever receives load through cell
			// migration, which is gridt's machinery.
			return nil, fmt.Errorf("core: SpareWorkers: %w", ErrAdjustNeedsHybrid)
		}
		if cfg.Workers+cfg.SpareWorkers > 64 {
			return nil, fmt.Errorf("core: Workers+SpareWorkers = %d exceeds the routing mask width (64)",
				cfg.Workers+cfg.SpareWorkers)
		}
	}
	for task := range cfg.RemoteWorkers {
		if task < 0 || task >= cfg.Workers {
			return nil, fmt.Errorf("%w: worker %d of %d", ErrRemoteTask, task, cfg.Workers)
		}
	}
	// The dial-time handshake pinned each node's topology shape and grid
	// geometry; refuse a Config that has since drifted from it, because
	// the nodes have already indexed against the handshake's geometry.
	for task, cl := range cfg.RemoteWorkers {
		hello := cl.Hello()
		granularity := cfg.Granularity // fillDefaults already ran
		switch {
		case hello.Workers != cfg.Workers+cfg.SpareWorkers:
			return nil, fmt.Errorf("%w: worker %d dialled with Workers=%d, Config now has %d",
				ErrRemoteConfigMismatch, task, hello.Workers, cfg.Workers+cfg.SpareWorkers)
		case hello.Granularity != granularity:
			return nil, fmt.Errorf("%w: worker %d dialled with Granularity=%d, Config now has %d",
				ErrRemoteConfigMismatch, task, hello.Granularity, granularity)
		case hello.BatchSize != cfg.BatchSize:
			return nil, fmt.Errorf("%w: worker %d dialled with BatchSize=%d, Config now has %d",
				ErrRemoteConfigMismatch, task, hello.BatchSize, cfg.BatchSize)
		case hello.Bounds != sample.Bounds:
			return nil, fmt.Errorf("%w: worker %d dialled with bounds %v, sample now has %v",
				ErrRemoteConfigMismatch, task, hello.Bounds, sample.Bounds)
		}
	}
	s.board = newTopKBoard(cfg.OnTopK)
	// Every per-slot structure is sized for Workers plus the spare
	// slots, so a runtime join never reallocates shared state; the
	// initial assignment still distributes over the first Workers slots
	// only (spares receive load via cell migration).
	totalSlots := cfg.Workers + cfg.SpareWorkers
	s.initHops()
	s.bolts = make([]*workerBolt, totalSlots)
	for i := range s.bolts {
		if s.hop(i) != nil {
			continue
		}
		eng := worker.New(worker.Config{
			Task:  i,
			Index: gi2.NewShared(sample.Bounds, cfg.Granularity, s.dict),
		})
		s.bolts[i] = &workerBolt{s: s, task: i, eng: eng}
		s.resolve = true
	}
	s.enqueued = make([]atomic.Int64, totalSlots)
	s.doneOps = make([]atomic.Int64, totalSlots)
	s.remoteHello = cfg.RemoteHello(0, sample)
	s.towork = newQueues(totalSlots, &cfg)
	s.shards = make([]dedupShard, cfg.Mergers)
	if s.canAdjust() {
		s.loadEWMA = make([]*metrics.EWMA, totalSlots)
		for i := range s.loadEWMA {
			s.loadEWMA[i] = metrics.NewEWMA(loadEWMAAlpha)
		}
		s.detector = load.NewDetector(load.DetectorConfig{
			Theta:         cfg.Adjust.Sigma,
			SustainChecks: cfg.Adjust.SustainChecks,
			Cooldown:      cfg.Adjust.Cooldown,
		})
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(discardHandler{})
	}
	s.initObservability()
	return s, nil
}

// canAdjust reports whether the migration machinery is available: hybrid
// routing, whose gridt cells are the units GI2 migrates in.
func (s *System) canAdjust() bool {
	return s.gridT.Load() != nil
}

// assignBox gives atomic.Value a single concrete type to hold, since the
// stored Assignment implementations vary.
type assignBox struct{ a partition.Assignment }

// Assignment returns the current distribution strategy.
func (s *System) Assignment() partition.Assignment {
	return s.assign.Load().(assignBox).a
}

// Start launches the topology. The system accepts operations via Submit
// until Close is called; Wait (or Close) reports the run outcome.
func (s *System) Start(ctx context.Context) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("core: already started")
	}
	runCtx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.runCtx = runCtx
	// The dispatcher parks on the ingest, where the run context cannot
	// reach it: close the ingest when it is cancelled.
	context.AfterFunc(runCtx, s.ingest.close)
	if s.hops != nil {
		// Remote transports block in socket reads the run context cannot
		// reach; force-close them on cancellation (a normal Close cancels
		// only after the run has drained and the hops have already
		// ended via Goodbye/EOF, where this is a no-op).
		go func() {
			<-runCtx.Done()
			s.closeRemoteTransports()
		}()
	}
	// The background loops end with the run. A tick in flight then
	// finishes against the stopped run, whose slots serve its rounds
	// directly, before Close or Abort returns.
	adjustCtx, adjustCancel := context.WithCancel(runCtx)
	var loops sync.WaitGroup
	for _, loop := range []func(context.Context){s.adjustLoop, s.checkpointLoop, s.windowLoop} {
		loops.Add(1)
		go func() {
			defer loops.Done()
			loop(adjustCtx)
		}()
	}
	go func() {
		err := s.run(runCtx, cancel)
		adjustCancel()
		close(s.stopped)
		loops.Wait()
		s.runErr <- err
	}()
	return nil
}

// Submit appends one operation to the ingest, blocking under backpressure.
// The dispatcher routes operations in the order their Submits took the
// ingest's lock, and every worker applies its share in that order. A
// Submit that races with Close or Abort, or follows them, returns without
// enqueuing. The envelope timestamp comes from the configured clock: it
// drives latency accounting and is the publish instant that window expiry
// is measured from (one stamp per object, so every worker replica agrees
// on its window lifetime). An object with nil Terms has them made from
// its Text here only when every slot is remote; otherwise the dispatcher
// reads the text (dispatcher.objectIDs).
func (s *System) Submit(op model.Op) {
	if o := op.Obj; o != nil && !s.resolve {
		makeTerms(o)
	}
	env := wire.OpEnv{Op: op, T0: s.now()}
	s.ingest.put(env)
}

// SubmitAll enqueues a batch.
func (s *System) SubmitAll(ops []model.Op) {
	for _, op := range ops {
		s.Submit(op)
	}
}

// Close stops input, waits for every operation a Submit had enqueued and
// every batch in flight to drain, and returns the run's error: nil, or
// the panics of the tasks that stopped it.
func (s *System) Close() error {
	if !s.started.Load() {
		return errors.New("core: not started")
	}
	if !s.closed.CompareAndSwap(false, true) {
		return errors.New("core: already closed")
	}
	s.ingest.close()
	err := <-s.runErr
	s.cancel()
	return err
}

// Abort cancels the run without draining.
func (s *System) Abort() {
	if s.cancel != nil {
		s.cancel()
	}
	if s.closed.CompareAndSwap(false, true) {
		s.ingest.close()
		<-s.runErr
	}
}

// Snapshot captures current metrics.
func (s *System) Snapshot() Snapshot {
	snap := Snapshot{
		Processed:       s.processed.Value(),
		Discarded:       s.discarded.Value(),
		Matches:         s.matches.Value(),
		Duplicates:      s.duplicates.Value(),
		SoloMatches:     s.soloMatches.Value(),
		ThroughputTPS:   s.tput.Rate(),
		Latency:         s.latency.Load().Snapshot(),
		MatchLatency:    s.matchLat.Load().Snapshot(),
		DispatcherBytes: s.Assignment().Footprint() + s.dict.Footprint(),
	}
	snap.WorkerLoads, _, _ = s.windowLoads()
	snap.BalanceFactor, _, _ = s.balance(snap.WorkerLoads)
	snap.WorkerBytes = make([]int64, s.totalSlots())
	s.eachLocal(func(i int, eng *worker.Engine) { snap.WorkerBytes[i] = eng.Footprint() })
	s.migMu.Lock()
	snap.Migrations = append([]MigrationStat(nil), s.migrations...)
	s.migMu.Unlock()
	snap.Adjust = s.adjustStats(snap.Migrations)
	snap.Stages = s.StageSnapshots()
	return snap
}

// adjustStats assembles the controller's AdjustStats from its counters and
// the given migration log.
func (s *System) adjustStats(migs []MigrationStat) AdjustStats {
	st := AdjustStats{
		Enabled:        s.cfg.Adjust.Enabled,
		Epoch:          s.routeEpoch.Load(),
		Checks:         s.adjChecks.Value(),
		Triggers:       s.adjTriggers.Value(),
		ManualTriggers: s.adjManual.Value(),
		SustainSkips:   s.adjSustains.Value(),
		CooldownSkips:  s.adjCooldowns.Value(),
		Migrations:     len(migs),
	}
	if ns := s.lastAdjustNs.Load(); ns != 0 {
		st.LastAdjust = time.Unix(0, ns)
	}
	for _, m := range migs {
		st.CellsMoved += m.Cells
		st.QueriesMoved += m.QueriesMoved
		st.BytesMoved += m.Bytes
	}
	if st.EWMALoads = s.ewmaLoads(); st.EWMALoads != nil {
		st.Imbalance, _, _ = s.balance(st.EWMALoads)
	}
	return st
}

// ewmaLoads reads the controller's smoothed per-slot loads, nil without a
// controller.
func (s *System) ewmaLoads() []float64 {
	if s.loadEWMA == nil {
		return nil
	}
	loads := make([]float64, len(s.loadEWMA))
	for i, e := range s.loadEWMA {
		loads[i] = e.Value()
	}
	return loads
}

// windowLoads evaluates Definition 1 for every slot, spares included,
// over the load window: what the slot's engine processed (lastStats)
// since the counts the controller last committed (prevWork), or since
// the start with no controller. It also returns the counts it read and
// the operations the window holds.
func (s *System) windowLoads() (loads []float64, cur []wire.StatsReply, ops int64) {
	n := s.totalSlots()
	loads, cur = make([]float64, n), make([]wire.StatsReply, n)
	start := s.prevWork.Load()
	for w := range n {
		cur[w] = s.lastStats(w)
		var d int64
		loads[w], d = s.windowLoad(start, w, cur[w])
		ops += d
	}
	return loads, cur, ops
}

// windowLoad is Definition 1 of slot w's counts c since start, a
// committed window start (nil: the run's start), and the operations
// between. Load start before reading c: one engine's counts only grow.
// Counts that fell back come from a new engine (a replacement node),
// whose window runs from its own start.
func (s *System) windowLoad(start *[]wire.StatsReply, w int, c wire.StatsReply) (float64, int64) {
	if start != nil {
		if p := (*start)[w]; c.Objects >= p.Objects && c.Inserts >= p.Inserts && c.Deletes >= p.Deletes {
			c.Objects, c.Inserts, c.Deletes = c.Objects-p.Objects, c.Inserts-p.Inserts, c.Deletes-p.Deletes
		}
	}
	return load.DefaultCosts.Worker(float64(c.Objects), float64(c.Inserts), float64(c.Deletes)), c.Objects + c.Inserts + c.Deletes
}

// Bounds returns the monitored region the system was built over.
func (s *System) Bounds() geo.Rect { return s.bounds }

// eachLocal visits the engines of the in-process slots — the read-only
// views (memory accounting) that only a local engine can serve without a
// control round.
func (s *System) eachLocal(fn func(slot int, eng *worker.Engine)) {
	for i, b := range s.bolts {
		if b != nil {
			fn(i, b.eng)
		}
	}
}

// WindowStats sums the in-process slots' window state: its estimated
// bytes, and each top-k subscription's skyband length per slot
// (benchmarks).
func (s *System) WindowStats() (bytes int64, bands []int) {
	s.eachLocal(func(_ int, eng *worker.Engine) {
		var b int64
		b, bands = eng.WindowStats(bands)
		bytes += b
	})
	return bytes, bands
}

// populationReq reads a slot's standing population: one copying
// ExtractCells over the whole-query spec, answered with every live query
// once and, with subs, each top-k subscription's window band.
func populationReq(subs bool) wire.ExtractCells {
	return wire.ExtractCells{Cells: []wire.CellSpec{{Cell: wire.WholeQueries}}, Subs: subs}
}

// slotPopulation is the population round of slot w.
func slotPopulation(w int, subs bool) *ctrlRound { return newRound(w, populationReq(subs), true) }

// population returns the answer of a sent population round as one
// whole-query payload, however many pages it came in.
func (s *System) population(c *ctrlRound) (wire.CellPayload, error) {
	cs, err := s.share(c)
	p := wire.CellPayload{Cell: wire.WholeQueries}
	for _, cp := range cs.Cells {
		p.Queries = append(p.Queries, cp.Queries...)
		p.Subs = append(p.Subs, cp.Subs...)
	}
	return p, err
}

// LiveQueries returns a point-in-time copy of the live query population
// of every member worker slot, in-process or remote, deduplicated across
// them and sorted by id. Each slot's round covers every operation whose
// Submit returned before the call, but the rounds enter the stream one
// after another, so with a live stream the set is a near-cut, not an
// exact one. A slot whose round fails is left out, and the error names
// it.
func (s *System) LiveQueries() ([]*model.Query, error) {
	byID := make(map[uint64]*model.Query)
	var errs []error
	s.fanOut(populationReq(false), func(c *ctrlRound) {
		p, err := s.population(c)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: population of worker %d: %w", c.slot, err))
			return
		}
		for _, q := range p.Queries {
			byID[q.ID] = q
		}
	})
	out := make([]*model.Query, 0, len(byID))
	for _, q := range byID {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, errors.Join(errs...)
}

// ErrBoundsMismatch is returned by Restore when the snapshot was taken
// over a different monitored region than this system's. Grid cell ids
// are relative to the region, so restoring across regions would register
// subscriptions into the wrong cells — they would never match.
var ErrBoundsMismatch = errors.New("core: snapshot bounds do not match the system's region")

// Checkpoint writes the live query population of every member worker
// slot to w in the snapshot format and returns how many queries it wrote.
func (s *System) Checkpoint(w io.Writer) (int, error) {
	qs, err := s.LiveQueries()
	if err != nil {
		return 0, err
	}
	return len(qs), snapshot.Write(w, s.bounds, qs)
}

// Restore submits every query of a snapshot as an insertion and returns
// how many it submitted. A snapshot taken over other bounds is refused
// with ErrBoundsMismatch before anything is submitted.
func (s *System) Restore(r io.Reader) (int, error) {
	h, qs, err := snapshot.Read(r)
	if err != nil {
		return 0, err
	}
	if h.Bounds != s.bounds {
		return 0, fmt.Errorf("%w: snapshot %v, system %v", ErrBoundsMismatch, h.Bounds, s.bounds)
	}
	for _, q := range qs {
		s.Submit(model.Op{Kind: model.OpInsert, Query: q})
	}
	return len(qs), nil
}

// WorkerOpCounts returns each worker's cumulative received-operation
// count (objects + insertions + deletions): tuples its bolt has finished
// with — processed in-process, or handed to the wire. Cheap: one atomic
// load per worker, no locks.
func (s *System) WorkerOpCounts() []int64 {
	out := make([]int64, s.totalSlots())
	for i := range out {
		out[i] = s.doneOps[i].Load()
	}
	return out
}

// WorkerQueryCounts reports live queries per worker slot: an in-process
// engine's count read live, and what a remote slot's latest stats round
// reported (RefreshWorkerStats).
func (s *System) WorkerQueryCounts() []int {
	out := make([]int, s.totalSlots())
	for w := range out {
		out[w] = int(s.lastStats(w).Queries)
	}
	return out
}

// ResetLatencyStats discards latency observations collected so far (e.g.
// the prewarm burst) so subsequent measurements reflect steady state.
func (s *System) ResetLatencyStats() {
	s.latency.Store(metrics.NewHistogram(nil))
	s.matchLat.Store(metrics.NewHistogram(nil))
}

// Processed returns the number of input tuples routed so far (cheap; no
// worker locks, unlike Snapshot).
func (s *System) Processed() int64 { return s.processed.Value() }

// MatchCount returns delivered (deduplicated) matches so far.
func (s *System) MatchCount() int64 { return s.matches.Value() }

// Migrations returns executed migrations so far.
func (s *System) Migrations() []MigrationStat {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return append([]MigrationStat(nil), s.migrations...)
}

// Package core wires PS2Stream together: dispatcher, worker and merger
// tasks on typed channels (§III-B, Figure 1), the workload-distribution
// assignment on the dispatchers, GI2 indexes on the workers, duplicate
// elimination on the mergers, and the dynamic load adjustment controller
// of §V. The whole publish path is batch-oriented: Submit appends to a
// per-dispatcher ingest shard, the dispatchers pull whole buffers from it,
// and operations and matches move between tasks as pooled typed slices of
// up to Config.BatchSize envelopes ([]wire.OpEnv, []wire.MatchEnv),
// amortising channel sends, lock acquisitions and clock reads over whole
// batches.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
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
	"ps2stream/internal/migrate"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/qindex"
	"ps2stream/internal/textutil"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
	"ps2stream/internal/worker"
)

// IndexFactory builds one worker's query index. granularity is the GI2
// grid resolution; other index kinds may ignore it.
type IndexFactory func(bounds geo.Rect, granularity int, stats *textutil.Stats) qindex.Index

// DefaultBatchSize is the tuples-per-channel-send default of the batched
// publish path (Config.BatchSize).
const DefaultBatchSize = 64

// defaultWorkers is the worker-task default of Config.fillDefaults,
// shared with ConnectRemoteWorkers (which must size against the default
// before New applies it).
const defaultWorkers = 8

// Config describes a PS2Stream deployment. The zero value is completed by
// New with the paper's defaults (4 dispatchers, 8 workers, 2 mergers,
// 2^6 × 2^6 grid granularity, hybrid partitioning).
type Config struct {
	// Dispatchers is the number of dispatcher tasks.
	Dispatchers int
	// Workers is the number of worker tasks (m in Definition 2).
	Workers int
	// Mergers is the number of merger tasks.
	Mergers int
	// Granularity is the per-axis grid resolution of GI2 and gridt.
	Granularity int
	// QueueCap bounds, in tuples, each worker's and merger's input queue
	// (rounded down to whole transfer batches, minimum one batch) and the
	// operations Submit may have waiting for the dispatchers: the ingest
	// shards hold QueueCap / Dispatchers each (minimum one batch), beside
	// the buffer a dispatcher is routing. A Submit to a full shard blocks
	// (backpressure).
	QueueCap int
	// BatchSize is the capacity of the typed batches that move on every
	// hop of the topology (operations dispatcher→worker, matches
	// worker→merger), one batch per channel send, and the number of
	// operations a dispatcher routes per fence section. Batches fill
	// adaptively: a dispatcher emits partial batches as soon as its input
	// goes idle and a worker emits its matches with every input batch, so
	// batching costs no latency on a quiet stream. 1 means unbatched
	// (one envelope per send); 0 uses DefaultBatchSize.
	BatchSize int
	// Builder constructs the workload distribution strategy; nil uses
	// hybrid partitioning.
	Builder partition.Builder
	// IndexFactory builds each worker's query index; nil uses GI2
	// (§IV-D). Dynamic load adjustment and Phase I split/merge migrate
	// gridt cells and therefore require GI2.
	IndexFactory IndexFactory
	// Costs are the Definition 1 constants.
	Costs load.Costs
	// Adjust configures dynamic load adjustment (§V); zero = disabled.
	Adjust AdjustConfig
	// OnMatch, when set, receives every deduplicated match from the
	// mergers. It is called concurrently from merger tasks. A panic in it
	// stops the run: parked Submits return, Drain fails, and Close returns
	// an error naming the panic.
	OnMatch func(model.Match)
	// OnTopK, when set, receives every global top-k membership change of
	// the sliding-window top-k subscriptions. It is called from worker
	// tasks while internal locks are held: it must be fast and must not
	// call back into the System.
	OnTopK func(TopKUpdate)
	// Clock supplies timestamps for window/top-k processing; nil uses
	// time.Now. Tests install a fake clock for deterministic expiry.
	Clock func() time.Time
	// Scorer ranks window entries for top-k subscriptions; nil uses
	// window.DefaultScorer.
	Scorer window.Scorer
	// WindowTick is the period of the eager window-expiry sweep
	// (default 50ms).
	WindowTick time.Duration
	// WindowRingCap bounds each grid cell's window ring in entries.
	WindowRingCap int
	// DedupWindow bounds each merger's duplicate-elimination memory in
	// (query, object) pairs. Matches of an object that was routed to a
	// single in-process worker cannot repeat and bypass the window.
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
	// RemoteMergers places merger tasks out-of-process. Matches routed
	// to a remote merger are deduplicated and delivered on its node;
	// the local OnMatch hook and Snapshot counters do not see them
	// (RemoteDelivered fetches the remote counts).
	RemoteMergers map[int]*wire.MergerClient
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
	// (Debug), every trigger and migration (Info), and fence-epoch
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
	// EWMAAlpha smooths the per-interval worker loads
	// (avg ← α·sample + (1−α)·avg, default 0.5). Lower values trade
	// reaction speed for stability.
	EWMAAlpha float64
	// Algorithm selects Phase II cell selection (default GR).
	Algorithm migrate.Algorithm
	// PhaseIP is the p most-loaded-cells parameter of Phase I.
	PhaseIP int
	// WireBytesPerSec simulates network transfer during migration;
	// 0 disables the simulated delay.
	WireBytesPerSec float64
	// MinWindowOps suppresses adjustment decisions on windows with too
	// few routed operations to be statistically meaningful.
	MinWindowOps int64
	// Seed drives the RA baseline's randomness.
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.Dispatchers <= 0 {
		c.Dispatchers = 4
	}
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
	if c.IndexFactory == nil {
		c.IndexFactory = func(bounds geo.Rect, granularity int, stats *textutil.Stats) qindex.Index {
			return gi2.New(bounds, granularity, stats)
		}
	}
	if c.Costs == (load.Costs{}) {
		c.Costs = load.DefaultCosts
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 1 << 15
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Scorer == nil {
		c.Scorer = window.DefaultScorer
	}
	if c.WindowTick <= 0 {
		c.WindowTick = 50 * time.Millisecond
	}
	if c.WindowRingCap <= 0 {
		c.WindowRingCap = window.DefaultRingCap
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
	if c.Adjust.EWMAAlpha <= 0 || c.Adjust.EWMAAlpha > 1 {
		c.Adjust.EWMAAlpha = 0.5
	}
	if c.Adjust.Algorithm == "" {
		c.Adjust.Algorithm = migrate.GR
	}
	if c.Adjust.PhaseIP <= 0 {
		c.Adjust.PhaseIP = 8
	}
	if c.SpareWorkers < 0 {
		c.SpareWorkers = 0
	}
	if c.Adjust.MinWindowOps <= 0 {
		c.Adjust.MinWindowOps = 256
	}
	c.Recovery.fillDefaults()
}

// MigrationStat records one executed migration (Figures 12–15).
type MigrationStat struct {
	Algorithm     migrate.Algorithm
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
	// migrated cell share (each flip advances the dispatcher fencing
	// epoch), so it can exceed Migrations: a Phase II MigrationStat
	// covers every cell of one selection.
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
	// SoloMatches counts the Matches delivered without a dedup-window
	// probe: their object was routed to exactly one in-process worker.
	SoloMatches   int64
	ThroughputTPS float64
	Latency       metrics.Snapshot
	MatchLatency  metrics.Snapshot
	WorkerLoads   []float64
	// DispatcherBytes estimates routing-structure memory (Figure 9).
	DispatcherBytes int64
	// WorkerBytes estimates per-worker GI2 memory (Figure 10).
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

	// slots holds each worker slot's endpoint, spares included: a
	// localWorker for an in-process slot, the slot's workerHop otherwise.
	slots []workerEndpoint
	// cellsMigrate records that every in-process engine runs GI2 (psnode
	// engines always do), the one index whose queries migrate in units of
	// gridt cells.
	cellsMigrate bool
	// ingest holds one shard per dispatcher task (ingest.go): Submit
	// appends to shard RouteHash % Dispatchers, the dispatcher pulls.
	ingest []*ingestShard
	// ingestBlocked counts the times a Submit parked on a full shard.
	ingestBlocked metrics.Counter
	// towork holds each worker slot's input channel, spares included, and
	// toMerge each merger's (topology.go); opBatches and matchBatches
	// recycle the typed batches they carry.
	towork       []chan *[]wire.OpEnv
	toMerge      []chan *[]wire.MatchEnv
	opBatches    batchPool[wire.OpEnv]
	matchBatches batchPool[wire.MatchEnv]

	runErr  chan error
	started atomic.Bool
	closed  atomic.Bool
	// runDone flips when run returns — including a stop by a task panic —
	// so barriers waiting on processing progress can fail fast instead of
	// waiting on a stopped topology.
	runDone atomic.Bool
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
	// (bounds, term statistics, geometry — everything but Task/Epoch).
	remoteHello wire.Hello

	// Metrics.
	processed  metrics.Counter
	discarded  metrics.Counter
	matches    metrics.Counter
	duplicates metrics.Counter
	// soloMatches counts the delivered matches that skipped the dedup
	// window (wire.MatchEnv.Solo); mergerIn counts every match a merger
	// task received, local or forwarding.
	soloMatches metrics.Counter
	mergerIn    metrics.Counter
	// matchesEmitted counts match envelopes emitted by the in-process
	// worker bolts; together with the remote workers' drain-acked counts
	// it is the Drain barrier's target for merger-side delivery.
	matchesEmitted metrics.Counter
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

	// Load accounting (dispatcher side, Definition 1 window).
	winObjects []atomic.Int64
	winInserts []atomic.Int64
	winDeletes []atomic.Int64
	// cellObjects counts object arrivals per grid cell (for Phase I
	// merge planning).
	cellObjects []atomic.Int64
	// enqueued/doneOps count operations handed to / completed by each worker
	// (never reset); their difference is the worker's in-flight depth,
	// used as the drain barrier for deferred migration extraction.
	enqueued []atomic.Int64
	doneOps  []atomic.Int64

	// Adaptive controller state. adjustMu serialises the background loop
	// and AdjustNow; work/prevWork/detector/adjustRng are owned under it.
	// loadEWMA values are atomically readable for Snapshot.
	adjustMu sync.Mutex
	// work holds each slot's cumulative processed-op counts as its
	// endpoint last reported them (pollLoads fills it each evaluation);
	// prevWork is the previous committed sample. The detector sees their
	// difference: what each worker actually processed this interval.
	work      []workCounts
	prevWork  []workCounts
	loadEWMA  []*metrics.EWMA
	detector  *load.Detector
	adjustRng *rand.Rand

	// routeMu fences dispatcher routing against migration flips: each
	// dispatcher chunk routes under its read lock, and a migrator calls
	// advanceRoute after flipping the routing table, so drain barriers read
	// after it cover every chunk routed under the old table. routeEpoch
	// counts the advances.
	routeMu    sync.RWMutex
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
	// pending deferred extractions (cells whose routing already flipped
	// but whose source copies await queue drain).
	pendingEx    []pendingExtract
	pendingCells map[int]bool

	// Global adjustment state.
	globalMu sync.Mutex
	dual     *dualAssignment

	// board reconciles worker-local top-k memberships into each
	// subscription's global top-k (see topk.go).
	board *topkBoard
}

// now reads the configured clock.
func (s *System) now() time.Time { return s.cfg.Clock() }

// ErrAdjustNeedsHybrid is returned when dynamic adjustment is requested
// with a non-hybrid distribution strategy.
var ErrAdjustNeedsHybrid = errors.New("core: dynamic load adjustment requires the hybrid (gridt) strategy")

// ErrAdjustNeedsGI2 is returned when dynamic adjustment is requested with
// a non-GI2 worker index (queries migrate in units of gridt cells, which
// only GI2 exposes).
var ErrAdjustNeedsGI2 = errors.New("core: dynamic load adjustment requires the GI2 worker index")

// New builds a system: the Builder analyses the sample and the worker
// indexes are created over the sample's bounds with the sample's term
// statistics (shared, read-only, by dispatchers and workers).
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
		cfg:    cfg,
		bounds: sample.Bounds,
		tput:   metrics.NewThroughput(),
		ingest: make([]*ingestShard, cfg.Dispatchers),
		runErr: make(chan error, 1),
	}
	for i := range s.ingest {
		s.ingest[i] = newIngestShard(max(cfg.QueueCap/cfg.Dispatchers, cfg.BatchSize), cfg.BatchSize, &s.ingestBlocked)
	}
	s.opBatches.size, s.matchBatches.size = cfg.BatchSize, cfg.BatchSize
	s.latency.Store(metrics.NewHistogram(nil))
	s.matchLat.Store(metrics.NewHistogram(nil))
	s.assign.Store(assignBox{a})
	if gt, ok := a.(*hybrid.GridT); ok {
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
	for task := range cfg.RemoteMergers {
		if task < 0 || task >= cfg.Mergers {
			return nil, fmt.Errorf("%w: merger %d of %d", ErrRemoteTask, task, cfg.Mergers)
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
	s.slots = make([]workerEndpoint, totalSlots)
	s.cellsMigrate = true
	windowGrid := grid.New(sample.Bounds, cfg.Granularity, cfg.Granularity)
	for i := range s.slots {
		if h := s.hop(i); h != nil {
			s.slots[i] = h
			continue
		}
		ix := cfg.IndexFactory(sample.Bounds, cfg.Granularity, sample.Stats)
		if ix == nil {
			return nil, errors.New("core: IndexFactory returned nil")
		}
		eng := worker.New(worker.Config{
			Task:    i,
			Index:   ix,
			Grid:    windowGrid,
			Scorer:  cfg.Scorer,
			RingCap: cfg.WindowRingCap,
		})
		s.cellsMigrate = s.cellsMigrate && eng.HasCells()
		s.slots[i] = &localWorker{eng: eng, board: s.board, wireRate: cfg.Adjust.WireBytesPerSec}
	}
	if cfg.Adjust.Enabled && !s.cellsMigrate {
		return nil, ErrAdjustNeedsGI2
	}
	s.winObjects = make([]atomic.Int64, totalSlots)
	s.winInserts = make([]atomic.Int64, totalSlots)
	s.winDeletes = make([]atomic.Int64, totalSlots)
	s.enqueued = make([]atomic.Int64, totalSlots)
	s.doneOps = make([]atomic.Int64, totalSlots)
	s.remoteHello = cfg.RemoteHello(0, sample)
	s.towork = newQueues[wire.OpEnv](totalSlots, &cfg)
	s.toMerge = newQueues[wire.MatchEnv](cfg.Mergers, &cfg)
	s.pendingCells = make(map[int]bool)
	if gt := s.gridT.Load(); gt != nil {
		s.cellObjects = make([]atomic.Int64, gt.Grid().NumCells())
	}
	if s.canAdjust() {
		s.work = make([]workCounts, totalSlots)
		s.prevWork = make([]workCounts, totalSlots)
		s.loadEWMA = make([]*metrics.EWMA, totalSlots)
		for i := range s.loadEWMA {
			s.loadEWMA[i] = metrics.NewEWMA(cfg.Adjust.EWMAAlpha)
		}
		s.detector = load.NewDetector(load.DetectorConfig{
			Theta:         cfg.Adjust.Sigma,
			SustainChecks: cfg.Adjust.SustainChecks,
			Cooldown:      cfg.Adjust.Cooldown,
		})
		s.adjustRng = rand.New(rand.NewSource(cfg.Adjust.Seed ^ 0xADAD))
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(discardHandler{})
	}
	s.initObservability()
	return s, nil
}

// workCounts is one controller sample of a worker's cumulative op counts.
type workCounts struct {
	objects, inserts, deletes int64
}

// canAdjust reports whether the migration machinery is available: hybrid
// routing + GI2 worker indexes (the units cells migrate in).
func (s *System) canAdjust() bool {
	return s.gridT.Load() != nil && s.cellsMigrate
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
	// The dispatchers park on their shards, where the run context cannot
	// reach them: close the ingest when it is cancelled.
	context.AfterFunc(runCtx, s.closeIngest)
	if s.hops != nil || len(s.cfg.RemoteMergers) > 0 {
		// Remote transports block in socket reads the run context cannot
		// reach; force-close them on cancellation (a normal Close cancels
		// only after the run has drained and the hops have already
		// ended via Goodbye/EOF, where this is a no-op).
		go func() {
			<-runCtx.Done()
			s.closeRemoteTransports()
		}()
	}
	adjustCtx, adjustCancel := context.WithCancel(runCtx)
	if s.cfg.Adjust.Enabled {
		go s.adjustLoop(adjustCtx)
	}
	if s.cfg.Recovery.Enabled && s.hops != nil {
		go s.checkpointLoop(adjustCtx)
	}
	go s.windowLoop(adjustCtx)
	go func() {
		err := s.run(runCtx, cancel)
		adjustCancel()
		s.runDone.Store(true)
		s.runErr <- err
	}()
	return nil
}

// Submit enqueues one operation on the ingest shard of its routing hash,
// blocking under backpressure. A Submit that races with Close or Abort, or
// follows them, returns without enqueuing. The envelope timestamp comes
// from the configured clock: it drives latency accounting and is the
// publish instant that window expiry is measured from (one stamp per
// object, so every worker replica agrees on its window lifetime).
func (s *System) Submit(op model.Op) {
	env := wire.OpEnv{Op: op, T0: s.now()}
	s.ingest[op.RouteHash()%uint64(len(s.ingest))].put(env)
}

// SubmitAll enqueues a batch.
func (s *System) SubmitAll(ops []model.Op) {
	for _, op := range ops {
		s.Submit(op)
	}
}

// closeIngest ends every shard (idempotent).
func (s *System) closeIngest() {
	for _, sh := range s.ingest {
		sh.close()
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
	s.closeIngest()
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
		s.closeIngest()
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
		DispatcherBytes: s.Assignment().Footprint(),
	}
	snap.WorkerLoads = s.windowLoads()
	snap.WorkerBytes = make([]int64, len(s.slots))
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
	if s.loadEWMA != nil {
		st.EWMALoads = make([]float64, len(s.loadEWMA))
		for i, e := range s.loadEWMA {
			st.EWMALoads[i] = e.Value()
		}
		// Inactive slots (unclaimed spares, decommissioned workers) sit
		// at zero load; dividing by them would read as infinite skew.
		st.Imbalance = load.BalanceFactor(maskActive(st.EWMALoads, s.activeWorkerSlots()))
	}
	return st
}

// windowLoads evaluates Definition 1 over the current dispatcher window.
func (s *System) windowLoads() []float64 {
	loads := make([]float64, len(s.winObjects))
	for i := range loads {
		loads[i] = s.cfg.Costs.Worker(
			float64(s.winObjects[i].Load()),
			float64(s.winInserts[i].Load()),
			float64(s.winDeletes[i].Load()),
		)
	}
	return loads
}

func (s *System) resetWindow() {
	for i := range s.winObjects {
		s.winObjects[i].Store(0)
		s.winInserts[i].Store(0)
		s.winDeletes[i].Store(0)
	}
}

// Bounds returns the monitored region the system was built over.
func (s *System) Bounds() geo.Rect { return s.bounds }

// eachLocal visits the engines of the in-process slots — the read-only
// views (memory accounting, checkpointing) that only a local engine can
// serve without a sweep.
func (s *System) eachLocal(fn func(slot int, eng *worker.Engine)) {
	for i, ep := range s.slots {
		if l, ok := ep.(*localWorker); ok {
			fn(i, l.eng)
		}
	}
}

// LiveQueries returns a point-in-time copy of the live query population
// of the in-process workers, deduplicated across them and sorted by id.
// Workers are locked one at a time, so with a live stream the set is a
// near-cut, not an exact one; quiesce input first for an exact snapshot.
func (s *System) LiveQueries() []*model.Query {
	byID := make(map[uint64]*model.Query)
	s.eachLocal(func(_ int, eng *worker.Engine) {
		eng.Each(func(q *model.Query) { byID[q.ID] = q })
	})
	out := make([]*model.Query, 0, len(byID))
	for _, q := range byID {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WorkerOpCounts returns each worker's cumulative received-operation
// count (objects + insertions + deletions): tuples its bolt has finished
// with — processed in-process, or handed to the wire. Cheap: one atomic
// load per worker, no locks.
func (s *System) WorkerOpCounts() []int64 {
	out := make([]int64, len(s.slots))
	for i := range out {
		out[i] = s.doneOps[i].Load()
	}
	return out
}

// WorkerQueryCounts reports stored distinct queries per in-process
// worker, zero for out-of-process ones (tests, examples).
func (s *System) WorkerQueryCounts() []int {
	out := make([]int, len(s.slots))
	s.eachLocal(func(i int, eng *worker.Engine) { out[i] = eng.QueryCount() })
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

// Quiesce blocks until the first `submitted` operations have been routed
// by the dispatchers AND every worker has drained its input (done ops
// caught up with enqueued ops, stable across two polls; a dispatcher
// advances the enqueue counters before it advances Processed). Benchmarks
// and tests use it as an exact "all standing state is applied" barrier
// between a prewarm phase and a measured/asserted phase; it never
// returns early, so only call it after submitting at least `submitted`
// operations.
func (s *System) Quiesce(submitted int64) {
	stable := 0
	for stable < 2 {
		if s.Processed() < submitted {
			stable = 0
			time.Sleep(2 * time.Millisecond)
			continue
		}
		ok := true
		for i := range s.enqueued {
			if s.doneOps[i].Load() != s.enqueued[i].Load() {
				ok = false
				break
			}
		}
		if !ok {
			stable = 0
			time.Sleep(2 * time.Millisecond)
			continue
		}
		stable++
		time.Sleep(2 * time.Millisecond)
	}
}

// MatchCount returns delivered (deduplicated) matches so far.
func (s *System) MatchCount() int64 { return s.matches.Value() }

// Migrations returns executed migrations so far.
func (s *System) Migrations() []MigrationStat {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return append([]MigrationStat(nil), s.migrations...)
}

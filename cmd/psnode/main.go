// Command psnode runs one PS2Stream topology role as its own OS
// process, turning the in-process reproduction into a real networked
// deployment (the paper's §VI runs the same roles as Storm tasks across
// a cluster). Roles speak the internal/wire protocol: length-prefixed
// binary frames over TCP (docs/WIRE.md).
//
// A local 1-dispatcher / 2-worker cluster:
//
//	psnode -role worker -listen 127.0.0.1:7101 -once &
//	psnode -role worker -listen 127.0.0.1:7102 -once &
//	psnode -role dispatcher -workers 127.0.0.1:7101,127.0.0.1:7102 \
//	       -mu 500 -ops 4000 -seed 2017 -out cluster.matches
//
// The dispatcher node embeds the coordinator (ingest, dispatcher task and
// mergers), generates the seeded workload, and drives it through the
// remote workers; their matches come back to it, and it deduplicates,
// counts, and (with -out) dumps one line per delivery, sorted — the
// same format the oracle mode writes, so the two runs diff byte for
// byte, and a pair delivered twice shows as a second line:
//
//	psnode -role dispatcher -oracle -mu 500 -ops 4000 -seed 2017 -out oracle.matches
//	diff cluster.matches oracle.matches
//
// Start order does not matter: the dispatcher dials peers with
// exponential backoff.
//
// With -adjust the dispatcher runs the adaptive load adjustment
// controller: hot grid cells migrate between the worker processes over
// the wire's cell-migration control frames while the stream keeps
// flowing. Combine with the skewed-hotspot workload flags (-hotspot,
// -hotspot-bias, -hotspot-shift-every, psgen's spelling) to watch a
// cluster rebalance after a traffic shift. The controller's decision
// trace — every detector verdict, trigger, and migration — is emitted as
// structured slog lines on stderr.
//
// Every role accepts -admin to serve an HTTP observability endpoint:
// Prometheus-text metrics on /metrics, the same series as JSON on
// /statsz, liveness and build info on /healthz, and net/http/pprof under
// /debug/pprof/. On the dispatcher a scrape reports the whole cluster
// (remote workers' counters are folded in); the bound address is logged
// at startup, so ":0" works for scripts:
//
//	psnode -role worker -listen 127.0.0.1:7101 -admin 127.0.0.1:9101 &
//	curl -s http://127.0.0.1:9101/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ps2stream/internal/core"
	"ps2stream/internal/faultnet"
	"ps2stream/internal/metrics"
	"ps2stream/internal/model"
	"ps2stream/internal/node"
	"ps2stream/internal/obs"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// flagGroups orders the usage listing by the role each flag belongs to,
// so `psnode -h` reads as three small flag sets instead of one
// alphabetical soup. Every defined flag must appear in exactly one group
// (TestUsageCoversEveryFlag enforces it).
var flagGroups = []struct {
	title string
	names []string
}{
	{"All roles", []string{"role", "admin"}},
	{"Worker nodes", []string{"listen", "once", "fault"}},
	{"Dispatcher (embedded coordinator)", []string{
		"workers", "out", "mu", "ops", "seed", "batch",
		"oracle", "adjust",
		"hotspot", "hotspot-bias", "hotspot-shift-every",
		"spare", "recover", "join", "retire",
		"topk", "topk-k", "topk-window", "topk-out", "repartition-at",
	}},
}

func groupedUsage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "Usage: psnode -role <worker|dispatcher> [flags]")
	for _, g := range flagGroups {
		fmt.Fprintf(w, "\n%s:\n", g.title)
		for _, name := range g.names {
			f := flag.Lookup(name)
			if f == nil {
				continue
			}
			typ, help := flag.UnquoteUsage(f)
			line := "  -" + f.Name
			if typ != "" {
				line += " " + typ
			}
			fmt.Fprintf(w, "%s\n    \t%s", line, help)
			if f.DefValue != "" && f.DefValue != "false" {
				fmt.Fprintf(w, " (default %s)", f.DefValue)
			}
			fmt.Fprintln(w)
		}
	}
}

// The flags are package-level so TestUsageCoversEveryFlag can check the
// groups above stay exhaustive as flags are added.
var (
	role  = flag.String("role", "", "worker | dispatcher")
	admin = flag.String("admin", "", "serve /metrics, /statsz, /healthz and /debug/pprof/ on this address; \":0\" picks a free port, logged at startup")

	listen = flag.String("listen", "127.0.0.1:0", "listen address")
	once   = flag.Bool("once", false, "exit after the coordinator session ends")
	fault  = flag.String("fault", "", "deterministic fault schedule on accepted connections, e.g. \"seed=7,drop=0.002,delay=0.05,delaymax=10ms,dup=0.01,skip=16\"")

	workers  = flag.String("workers", "", "comma-separated worker addresses")
	out      = flag.String("out", "", "write the delivered match set to this file, one line per delivery, sorted")
	mu       = flag.Int("mu", 500, "standing subscriptions to prewarm")
	ops      = flag.Int("ops", 4000, "stream operations to publish")
	seed     = flag.Int64("seed", 2017, "workload seed")
	batch    = flag.Int("batch", 0, "transfer batch size, 0 = default")
	oracle   = flag.Bool("oracle", false, "run the workload fully in-process instead of joining peers")
	adjust   = flag.Bool("adjust", false, "enable the adaptive load adjustment controller; cells migrate across the wire when workers are remote")
	hotspot  = flag.Int("hotspot", -1, "focus object traffic on this hotspot cluster index (-1 off)")
	hotBias  = flag.Float64("hotspot-bias", 0.85, "fraction of objects concentrated on the focused hotspot")
	hotShift = flag.Int("hotspot-shift-every", 0, "shift the focus to the next hotspot every N stream ops (0 never)")

	topkN      = flag.Int("topk", 0, "register this many sliding-window top-k subscriptions cloned from the prewarmed standing queries; freezes the logical clock so cluster and oracle runs rank identically")
	topkK      = flag.Int("topk-k", 5, "k for the -topk subscriptions")
	topkWindow = flag.Duration("topk-window", 24*time.Hour, "sliding window for the -topk subscriptions")
	topkOut    = flag.String("topk-out", "", "write the final reconciled top-k sets to this file, sorted (diffable against an -oracle run)")
	repartAt   = flag.Int("repartition-at", 0, "run a global repartition (fresh sample, every cell re-placed over the wire) after this many stream ops (0 never)")

	spare       = flag.Int("spare", 0, "reserve this many routing slots for workers joined at runtime")
	recoverFlag = flag.Bool("recover", false, "survive remote worker crashes: heartbeats, per-worker op log, redial + replay")
	join        = flag.String("join", "", "join worker addresses mid-stream: \"addr@ops[,addr@ops...]\" dials addr after that many stream ops (needs -spare)")
	retire      = flag.String("retire", "", "decommission worker tasks mid-stream: \"task@ops[,task@ops...]\"")
)

func main() {
	flag.Usage = groupedUsage
	flag.Parse()
	logger := log.New(os.Stderr, "psnode: ", log.Ltime|log.Lmicroseconds)

	switch *role {
	case "worker":
		ctx := context.Background()
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("worker: listening on %s", ln.Addr())
		if *fault != "" {
			fc, err := parseFaultSpec(*fault)
			if err != nil {
				logger.Fatal(err)
			}
			logger.Printf("worker: fault schedule %+v", fc)
			ln = faultnet.WrapListener(ln, fc)
		}
		w := node.NewWorker(node.WorkerOptions{
			Log:  logger.Printf,
			Once: *once,
		})
		startAdmin(logger, *admin, "worker", w.Registry(), w.Epoch, nil)
		if err := w.Serve(ctx, ln); err != nil && ctx.Err() == nil {
			logger.Fatal(err)
		}
	case "dispatcher":
		events, err := parseMemberEvents(*join, *retire)
		if err != nil {
			logger.Fatal(err)
		}
		runDispatcher(logger, dispatcherConfig{
			workerAddrs: splitAddrs(*workers),
			mu:          *mu,
			ops:         *ops,
			seed:        *seed,
			batch:       *batch,
			oracle:      *oracle,
			out:         *out,
			admin:       *admin,
			adjust:      *adjust,
			hotspot:     *hotspot,
			hotBias:     *hotBias,
			hotShift:    *hotShift,
			spare:       *spare,
			recover:     *recoverFlag,
			events:      events,
			topk:        *topkN,
			topkK:       *topkK,
			topkWindow:  *topkWindow,
			topkOut:     *topkOut,
			repartAt:    *repartAt,
		})
	default:
		fmt.Fprintln(os.Stderr, "psnode: -role must be worker or dispatcher")
		flag.Usage()
		os.Exit(2)
	}
}

// startAdmin serves the observability endpoints when -admin was given.
// The server lives for the rest of the process; the bound address is
// logged so scripts can pass ":0" and scrape whatever was picked.
func startAdmin(logger *log.Logger, addr, role string, reg *metrics.Registry, epoch func() uint64, beforeScrape func()) *obs.Server {
	if addr == "" {
		return nil
	}
	srv, err := obs.Serve(addr, obs.Options{
		Registry:     reg,
		Role:         role,
		Epoch:        epoch,
		BeforeScrape: beforeScrape,
	})
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("admin: listening on %s", srv.Addr())
	return srv
}

// parseFaultSpec parses the -fault mini-language: comma-separated k=v
// pairs mapping onto faultnet.Config.
func parseFaultSpec(s string) (faultnet.Config, error) {
	var cfg faultnet.Config
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("-fault: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			_, err = fmt.Sscanf(v, "%d", &cfg.Seed)
		case "drop":
			_, err = fmt.Sscanf(v, "%g", &cfg.Drop)
		case "delay":
			_, err = fmt.Sscanf(v, "%g", &cfg.Delay)
		case "delaymax":
			cfg.DelayMax, err = time.ParseDuration(v)
		case "dup":
			_, err = fmt.Sscanf(v, "%g", &cfg.Dup)
		case "skip":
			_, err = fmt.Sscanf(v, "%d", &cfg.SkipFrames)
		default:
			return cfg, fmt.Errorf("-fault: unknown key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("-fault: %q: %v", kv, err)
		}
	}
	return cfg, nil
}

// memberEvent is one scheduled membership change: join a worker at addr
// (task < 0) or retire the given task, once `at` stream ops have been
// submitted.
type memberEvent struct {
	at   int
	addr string
	task int
}

// parseMemberEvents parses "-join addr@ops" / "-retire task@ops" lists
// (comma-separated) into a schedule sorted by trigger point.
func parseMemberEvents(joins, retires string) ([]memberEvent, error) {
	var evs []memberEvent
	for _, spec := range splitAddrs(joins) {
		addr, at, ok := strings.Cut(spec, "@")
		var n int
		if _, err := fmt.Sscanf(at, "%d", &n); !ok || err != nil || addr == "" {
			return nil, fmt.Errorf("-join: %q is not addr@ops", spec)
		}
		evs = append(evs, memberEvent{at: n, addr: addr, task: -1})
	}
	for _, spec := range splitAddrs(retires) {
		taskStr, at, ok := strings.Cut(spec, "@")
		var n, task int
		if _, err := fmt.Sscanf(at, "%d", &n); !ok || err != nil {
			return nil, fmt.Errorf("-retire: %q is not task@ops", spec)
		}
		if _, err := fmt.Sscanf(taskStr, "%d", &task); err != nil {
			return nil, fmt.Errorf("-retire: %q is not task@ops", spec)
		}
		evs = append(evs, memberEvent{at: n, task: task})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs, nil
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// matchDump counts delivered matches and writes one line per delivery,
// sorted — a canonical form two runs can diff byte for byte, in which a
// pair delivered twice shows as two lines.
type matchDump struct {
	mu    sync.Mutex
	count map[model.Match]int
}

func newMatchDump() *matchDump {
	return &matchDump{count: make(map[model.Match]int)}
}

func (d *matchDump) add(m model.Match) {
	m.Worker = 0 // placement detail, not part of the match identity
	d.mu.Lock()
	d.count[m]++
	d.mu.Unlock()
}

func (d *matchDump) write(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ms := make([]model.Match, 0, len(d.count))
	for m := range d.count {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].QueryID != ms[j].QueryID {
			return ms[i].QueryID < ms[j].QueryID
		}
		return ms[i].ObjectID < ms[j].ObjectID
	})
	var sb strings.Builder
	for _, m := range ms {
		for range d.count[m] {
			fmt.Fprintf(&sb, "%d %d %d\n", m.QueryID, m.ObjectID, m.Subscriber)
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

type dispatcherConfig struct {
	workerAddrs []string
	mu, ops     int
	seed        int64
	batch       int
	oracle      bool
	out         string
	// admin is the observability endpoint address ("" disables).
	admin string
	// adjust enables the adaptive controller; with remote workers its
	// migrations cross the wire.
	adjust bool
	// hotspot/hotBias/hotShift configure the skewed-hotspot object
	// workload (psgen's flags of the same names).
	hotspot  int
	hotBias  float64
	hotShift int
	// spare reserves routing slots for runtime joins; recover enables
	// crash detection + redial/replay; events are the scheduled -join and
	// -retire membership changes, sorted by trigger point.
	spare   int
	recover bool
	events  []memberEvent
	// topk registers that many sliding-window top-k subscriptions cloned
	// from the prewarmed standing queries (k = topkK, window =
	// topkWindow); topkOut dumps the final reconciled sets. Top-k runs
	// freeze the logical clock: decay rank then depends only on textual
	// relevance, so a cluster run and an -oracle run of the same seed
	// produce byte-identical dumps no matter how long recovery or
	// repartition stalls the wall clock.
	topk       int
	topkK      int
	topkWindow time.Duration
	topkOut    string
	// repartAt schedules one GlobalRepartition — every cell re-placed
	// from a fresh assignment, over the wire when workers are remote —
	// after that many measured stream ops.
	repartAt int
}

// topkDump renders the reconciled top-k sets in a canonical sorted form
// (query id ascending, member ids ascending) so a cluster run and an
// oracle run diff byte for byte.
func topkDump(sys *core.System, ids []uint64) string {
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d:", id)
		for _, m := range sys.TopKSet(id) {
			fmt.Fprintf(&sb, " %d", m)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// runDispatcher embeds the coordinator: it builds the partitioning
// sample, connects the remote peers (unless -oracle), prewarms µ
// standing subscriptions, streams the seeded workload, drains end to
// end, and reports counts.
func runDispatcher(logger *log.Logger, dc dispatcherConfig) {
	spec := workload.TweetsUS()
	sample := workload.Sample(spec, workload.Q1, 3000, 600, dc.seed)
	if dc.topkOut != "" && dc.topk == 0 {
		logger.Fatal("-topk-out needs -topk")
	}
	var dump *matchDump
	cfg := core.Config{
		BatchSize: dc.batch,
		// The adjustment decision trace (detector verdicts at Debug,
		// triggers and migrations at Info) goes to stderr alongside the
		// plain progress log.
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
			Level: slog.LevelInfo,
		})),
	}
	if dc.adjust {
		// Tracing every 15ms detector verdict is what -adjust runs are
		// for; quiet runs keep the Info-level trace only.
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
			Level: slog.LevelDebug,
		}))
		// An aggressive cadence sized for short CI runs: the hotspot
		// shift must be detected and spread within a few hundred
		// milliseconds of paced traffic.
		cfg.Adjust = core.AdjustConfig{
			Enabled:       true,
			Sigma:         1.2,
			Interval:      15 * time.Millisecond,
			Cooldown:      30 * time.Millisecond,
			SustainChecks: 1,
			MinWindowOps:  64,
		}
	}
	if dc.oracle {
		if len(dc.workerAddrs) > 0 {
			logger.Fatal("-oracle runs fully in-process; drop -workers")
		}
		if dc.spare > 0 || dc.recover || len(dc.events) > 0 {
			logger.Fatal("-spare/-recover/-join/-retire need remote workers; drop them with -oracle")
		}
		cfg.Workers = 2
	} else {
		if len(dc.workerAddrs) == 0 {
			logger.Fatal("dispatcher needs -workers (or -oracle)")
		}
		// Every worker task lives on a peer: the dispatcher node routes,
		// it does not match.
		cfg.Workers = len(dc.workerAddrs)
		// Membership options go on the config before the dial: the
		// handshake hello carries the total slot count and the heartbeat
		// request.
		cfg.SpareWorkers = dc.spare
		if dc.recover {
			// Cadences sized for short CI runs: fast enough that a crash,
			// redial, and replay complete within a few seconds of stream
			// time, without sub-100ms timers that flake loaded runners.
			cfg.Recovery = core.RecoveryConfig{
				Enabled:            true,
				CheckpointInterval: 250 * time.Millisecond,
				HeartbeatInterval:  100 * time.Millisecond,
				RedialTimeout:      30 * time.Second,
			}
		}
		if err := cfg.ConnectRemoteWorkers(dc.workerAddrs, sample, wire.Backoff{}); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("dispatcher: %d remote workers", len(dc.workerAddrs))
	}
	if dc.topk > 0 {
		// Freeze the logical clock: every op in the cluster run and the
		// oracle run carries the same publish stamp, so decay rank depends
		// only on textual relevance and the top-k dumps diff byte for
		// byte. Expiry never fires under a frozen clock.
		frozen := time.Unix(1_700_000_000, 0)
		cfg.Clock = func() time.Time { return frozen }
	}
	if dc.out != "" {
		dump = newMatchDump()
		cfg.OnMatch = dump.add
	}

	sys, err := core.New(cfg, sample)
	if err != nil {
		logger.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		logger.Fatal(err)
	}
	// A scrape of the dispatcher reports the whole cluster: remote
	// workers' counters are refreshed (rate-limited) before each scrape.
	startAdmin(logger, dc.admin, "dispatcher", sys.Registry(), sys.RouteEpoch,
		func() { sys.RefreshWorkerStats(500 * time.Millisecond) })
	scfg := workload.StreamConfig{Mu: dc.mu, Seed: dc.seed}
	if dc.hotspot >= 0 {
		scfg.FocusBias = dc.hotBias
		scfg.FocusHotspot = dc.hotspot
	}
	st := workload.NewStream(spec, workload.Q1, scfg)
	warm := st.Prewarm(dc.mu)
	sys.SubmitAll(warm)
	if err := sys.Drain(); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("dispatcher: %d standing subscriptions prewarmed", dc.mu)
	// The measured stream is pre-generated (op-by-op, so the hotspot
	// focus can still shift by index) before anything is published: the
	// top-k mix below is chosen against it, and the static path submits
	// it in one tight burst as before.
	focused := dc.hotspot
	nextOp := func(i int) model.Op {
		if dc.hotspot >= 0 && dc.hotShift > 0 && i > 0 && i%dc.hotShift == 0 {
			focused++
			st.FocusHotspot(focused)
		}
		return st.Next()
	}
	stream := make([]model.Op, dc.ops)
	for i := range stream {
		stream[i] = nextOp(i)
	}
	// Top-k subscriptions clone prewarmed query shapes — the ones that
	// match the most stream objects, so the sets provably rank something
	// — under fresh ids (and a distinct subscriber) that keep the boolean
	// match set untouched. The scan is deterministic, so a cluster run
	// and an -oracle run of the same seed pick the same shapes.
	var topkIDs []uint64
	if dc.topk > 0 {
		type cand struct {
			q *model.Query
			n int
		}
		var cands []cand
		for _, op := range warm {
			if op.Kind == model.OpInsert && op.Query != nil {
				cands = append(cands, cand{q: op.Query})
			}
		}
		for _, op := range stream {
			if op.Kind != model.OpObject {
				continue
			}
			for i := range cands {
				if cands[i].q.Matches(op.Obj) {
					cands[i].n++
				}
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].n > cands[j].n })
		var qs []model.Op
		for _, c := range cands {
			if c.n == 0 || len(qs) == dc.topk {
				break
			}
			q := *c.q
			q.ID = 990001 + uint64(len(qs))
			q.Subscriber = 42
			q.TopK = dc.topkK
			q.Window = dc.topkWindow
			topkIDs = append(topkIDs, q.ID)
			qs = append(qs, model.Op{Kind: model.OpInsert, Query: &q})
		}
		if len(qs) < dc.topk {
			logger.Fatalf("-topk %d: only %d prewarmed shapes match any stream object; lower -topk or raise -ops",
				dc.topk, len(qs))
		}
		sys.SubmitAll(qs)
		if err := sys.Drain(); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("dispatcher: %d top-k subscriptions registered (k=%d window=%v)",
			len(qs), dc.topkK, dc.topkWindow)
	}
	// One scheduled global repartition: a drain barrier, then every cell
	// re-placed from a differently-seeded sample (the same seed would
	// rebuild the identical assignment and move nothing). The dual-route
	// transition is retired before the final counters.
	repartPending := dc.repartAt > 0
	maybeRepartition := func(sent int) {
		if !repartPending || sent < dc.repartAt {
			return
		}
		repartPending = false
		if err := sys.Drain(); err != nil {
			logger.Fatal(err)
		}
		sample2 := workload.Sample(spec, workload.Q1, 3000, 600, dc.seed+1)
		if err := sys.GlobalRepartition(sample2, nil); err != nil {
			logger.Fatalf("global repartition after %d ops: %v", sent, err)
		}
		logger.Printf("dispatcher: global repartition begun after %d ops (assignment %s)",
			sent, sys.Assignment().Name())
	}

	t0 := time.Now()
	// Scheduled membership changes fire between bursts once the stream
	// has advanced past their trigger point. A failure is fatal: the
	// harness asked for a membership change and silently skipping it
	// would let a vacuous run pass.
	events := dc.events
	fireEvents := func(sent int) {
		for len(events) > 0 && sent >= events[0].at {
			ev := events[0]
			events = events[1:]
			if ev.task < 0 {
				task, err := sys.AddWorker(ev.addr)
				if err != nil {
					logger.Fatalf("join %s after %d ops: %v", ev.addr, sent, err)
				}
				logger.Printf("dispatcher: worker %s joined as task %d after %d ops", ev.addr, task, sent)
			} else {
				if err := sys.DecommissionWorker(ev.task); err != nil {
					logger.Fatalf("retire task %d after %d ops: %v", ev.task, sent, err)
				}
				logger.Printf("dispatcher: worker task %d decommissioned after %d ops", ev.task, sent)
			}
		}
	}
	if dc.adjust || len(dc.events) > 0 || dc.repartAt > 0 {
		// With the controller on, publishing is paced in small bursts:
		// the detector needs wall-clock Interval windows of live traffic
		// to observe the shift and react, which an unpaced burst would
		// compress into a single window. Membership events ride the same
		// loop (unpaced without -adjust) so they interleave with live
		// traffic instead of before/after it.
		const burstEvery = 3 * time.Millisecond
		const perBurst = 48
		for sent := 0; sent < dc.ops; {
			fireEvents(sent)
			maybeRepartition(sent)
			for j := 0; j < perBurst && sent < dc.ops; j++ {
				sys.Submit(stream[sent])
				sent++
			}
			if dc.adjust && sent < dc.ops {
				time.Sleep(burstEvery)
			}
		}
		fireEvents(dc.ops)
		maybeRepartition(dc.ops)
	} else {
		// Static runs submit in one tight burst. The one dispatcher
		// orders every op as submitted, so cluster and oracle see the
		// same stream however it is paced.
		sys.SubmitAll(stream)
	}
	if err := sys.Drain(); err != nil {
		logger.Fatal(err)
	}
	if dc.repartAt > 0 {
		moved := sys.FinishGlobalRepartition()
		logger.Printf("dispatcher: global repartition finished, %d stale-routed queries relocated (assignment %s)",
			moved, sys.Assignment().Name())
	}
	elapsed := time.Since(t0)
	if dc.adjust {
		adj := sys.Snapshot().Adjust
		logger.Printf("dispatcher: adjust migrations=%d cells=%d queries=%d bytes=%d (checks=%d triggers=%d)",
			adj.Migrations, adj.CellsMoved, adj.QueriesMoved, adj.BytesMoved, adj.Checks, adj.Triggers)
	}

	logger.Printf("dispatcher: %d ops in %v (%.0f tuples/s), %d matches delivered",
		dc.ops, elapsed.Round(time.Millisecond), float64(dc.ops)/elapsed.Seconds(), sys.MatchCount())

	if dc.topkOut != "" {
		if err := os.WriteFile(dc.topkOut, []byte(topkDump(sys, topkIDs)), 0o644); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("dispatcher: top-k sets written to %s", dc.topkOut)
	}
	if err := sys.Close(); err != nil {
		logger.Fatal(err)
	}
	if dump != nil {
		if err := dump.write(dc.out); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("dispatcher: match set written to %s", dc.out)
	}
}

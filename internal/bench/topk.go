package bench

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"ps2stream/internal/core"
	"ps2stream/internal/node"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// topKFraction is the share of subscriptions that are sliding-window
// top-k in the mixed workload (the rest stay boolean, as a production mix
// would).
const topKFraction = 0.5

// TopKThroughput measures end-to-end throughput and delivered membership
// updates with a sliding-window top-k subscription mix at k ∈ {1, 10, 50},
// against the pure boolean workload as baseline. Bigger k means larger
// per-subscription skybands (about k·ln n entries for n matching objects
// in a window), and a larger global candidate union to reconcile — the
// sweep shows what ranked delivery costs on top of the paper's boolean
// matching.
func TopKThroughput(sc Scale) []Table {
	sc = sc.orDefault()
	spec := workload.TweetsUS()
	placement := ""
	if sc.Wire {
		placement = "; all worker tasks behind loopback TCP, top-k deltas cross the wire"
	}
	t := Table{
		Title:  "Top-k sliding window: throughput vs k (mix 50% top-k, window 30s" + placement + ")",
		Header: []string{"k", "throughput(tuples/s)", "topk_updates", "matches"},
	}
	for _, k := range []int{0, 1, 10, 50} {
		tp, ups, matches, err := measureTopK(spec, sc, k)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprint(k), "ERR: " + err.Error(), "", ""})
			continue
		}
		label := fmt.Sprint(k)
		if k == 0 {
			label = "0 (boolean)"
		}
		t.Rows = append(t.Rows, []string{label, f0(tp), fmt.Sprint(ups), fmt.Sprint(matches)})
	}
	return []Table{t}
}

// measureTopK runs the standard throughput protocol with a top-k query
// mix; k == 0 is the boolean baseline. With sc.Wire every worker task
// sits behind a loopback-TCP node, so the membership updates counted
// here arrive through the epoch-tagged WindowDeltaBatch stream and the
// timed region closes at a fenced AdvanceWindow drain barrier instead
// of the in-process counter poll.
func measureTopK(spec workload.DatasetSpec, sc Scale, k int) (tps float64, updates, matches int64, err error) {
	sample := workload.Sample(spec, workload.Q1, sc.SampleObjects, sc.SampleQueries, sc.Seed)
	var ups atomic.Int64
	cfg := core.Config{
		Workers:      sc.Workers,
		PerTupleWork: sc.PerTupleWork,
		OnTopK:       func(core.TopKUpdate) { ups.Add(1) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if sc.Wire {
		addrs := make([]string, sc.Workers)
		for i := range addrs {
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				return 0, 0, 0, lerr
			}
			go node.NewWorker(node.WorkerOptions{}).Serve(ctx, ln)
			addrs[i] = ln.Addr().String()
		}
		if cerr := cfg.ConnectRemoteWorkers(addrs, sample, wire.Backoff{}); cerr != nil {
			return 0, 0, 0, cerr
		}
	}
	sys, err := core.New(cfg, sample)
	if err != nil {
		return 0, 0, 0, err
	}
	scfg := workload.StreamConfig{Mu: sc.Mu1, Seed: sc.Seed}
	if k > 0 {
		scfg.TopKFraction = topKFraction
		scfg.TopKK = k
		scfg.TopKWindow = 30 * time.Second
	}
	st := workload.NewStream(spec, workload.Q1, scfg)
	if err := sys.Start(context.Background()); err != nil {
		return 0, 0, 0, err
	}
	warm := st.Prewarm(sc.Mu1)
	sys.SubmitAll(warm)
	if sc.Wire {
		if err := sys.Drain(); err != nil {
			return 0, 0, 0, err
		}
	} else {
		waitProcessed(sys, int64(len(warm)))
	}
	t0 := time.Now()
	for i := 0; i < sc.Ops; i++ {
		sys.Submit(st.Next())
	}
	if sc.Wire {
		if err := sys.Drain(); err != nil {
			return 0, 0, 0, err
		}
	} else {
		waitProcessed(sys, int64(len(warm)+sc.Ops))
	}
	el := time.Since(t0)
	matches = sys.MatchCount()
	if err := sys.Close(); err != nil {
		return 0, 0, 0, err
	}
	return float64(sc.Ops) / el.Seconds(), ups.Load(), matches, nil
}

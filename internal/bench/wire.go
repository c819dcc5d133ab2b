package bench

import (
	"context"
	"fmt"
	"net"
	"time"

	"ps2stream/internal/core"
	"ps2stream/internal/node"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// wireRepeats mirrors batchRepeats: best-of-N converges on capacity.
// Seven repeats (not three) because the tcp/inproc ratio is CI-gated
// with a hard floor; best-of-seven, with the two modes interleaved so
// background noise lands on both alike, keeps scheduler jitter out of
// both numerators.
const wireRepeats = 7

// WireThroughput measures the cost of leaving the process: the same
// seeded workload is driven once with every worker task in-process
// (channel transfer) and once with every worker task behind loopback
// TCP (psnode serve loops speaking the internal/wire protocol — real
// sockets, binary framing, one connection per hop, drain barriers; only
// the machine boundary is missing). The ratio is the wire tax a networked deployment pays per
// hop before real network latency is added; the matches column
// sanity-checks comparable delivery (small run-to-run variation stems
// from insert/object ordering races across dispatcher tasks and exists
// identically in both modes — the exact-set guarantee is asserted by
// the single-dispatcher tests in core and cmd/psnode).
func WireThroughput(sc Scale) []Table {
	sc = sc.orDefault()
	sc.PerTupleWork = 0
	spec := workload.TweetsUS()
	t := Table{
		Title:  "Wire transport: in-process channels vs loopback TCP (all worker tasks remote; PerTupleWork forced to 0)",
		Header: []string{"transport", "throughput(tuples/s)", "speedup", "matches"},
	}
	// Interleaved best-of: each repeat runs both modes back to back, so
	// background load skews them alike instead of landing on whichever
	// mode happened to run during the noisy stretch.
	var tp [2]float64
	var matches [2]int64
	var errs [2]error
	for r := 0; r < wireRepeats; r++ {
		for m := 0; m < 2; m++ {
			if errs[m] != nil {
				continue
			}
			rtp, rm, rerr := measureWire(spec, sc, m == 1)
			if rerr != nil {
				errs[m] = rerr
				continue
			}
			if rtp > tp[m] {
				tp[m], matches[m] = rtp, rm
			}
		}
	}
	for m, mode := range []string{"inproc", "tcp"} {
		if errs[m] != nil {
			t.Rows = append(t.Rows, []string{mode, "ERR: " + errs[m].Error(), "", ""})
			continue
		}
		speedup := "1.00x"
		if m == 1 && tp[0] > 0 {
			speedup = fmt.Sprintf("%.2fx", tp[1]/tp[0])
		}
		t.Rows = append(t.Rows, []string{mode, f0(tp[m]), speedup, fmt.Sprint(matches[m])})
	}
	return []Table{t}
}

// measureWire runs the standard throughput protocol with all worker
// tasks either in-process or behind loopback-TCP worker nodes.
func measureWire(spec workload.DatasetSpec, sc Scale, tcp bool) (tps float64, matches int64, err error) {
	sample := workload.Sample(spec, workload.Q1, sc.SampleObjects, sc.SampleQueries, sc.Seed)
	cfg := core.Config{
		Dispatchers: sc.Dispatchers,
		Workers:     sc.Workers,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if tcp {
		addrs := make([]string, sc.Workers)
		for i := range addrs {
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				return 0, 0, lerr
			}
			go node.NewWorker(node.WorkerOptions{}).Serve(ctx, ln)
			addrs[i] = ln.Addr().String()
		}
		if err := cfg.ConnectRemoteWorkers(addrs, sample, wire.Backoff{}); err != nil {
			return 0, 0, err
		}
	}
	sys, err := core.New(cfg, sample)
	if err != nil {
		return 0, 0, err
	}
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: sc.Mu1, Seed: sc.Seed})
	if err := sys.Start(context.Background()); err != nil {
		return 0, 0, err
	}
	warm := st.Prewarm(sc.Mu1)
	sys.SubmitAll(warm)
	// Full end-to-end drain (remote workers included) so the standing
	// population is indexed before the measured stream starts.
	if err := sys.Drain(int64(len(warm))); err != nil {
		return 0, 0, err
	}
	ops := st.Take(sc.Ops)
	t0 := time.Now()
	sys.SubmitAll(ops)
	// The timed region ends at the same barrier in both modes: every op
	// processed and every match delivered.
	if err := sys.Drain(int64(len(warm) + len(ops))); err != nil {
		return 0, 0, err
	}
	el := time.Since(t0)
	if err := sys.Close(); err != nil {
		return 0, 0, err
	}
	return float64(len(ops)) / el.Seconds(), sys.MatchCount(), nil
}

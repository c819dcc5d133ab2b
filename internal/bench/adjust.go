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

// The hotspot-shift workload of the adjust experiment: object traffic
// concentrates on cluster adjustHotA with adjustBias, then shifts to
// adjustHotB mid-run. The partitioner is fitted to the pre-shift skew
// (objects and queries focused on A), so after the shift a static
// assignment funnels most of the now-hot traffic into the few workers
// that happen to own B's cells. The metro-scale sigma matters: the hot
// load must span many grid cells, because cells are the migration unit —
// load concentrated in a single cell cannot be spread at all.
const (
	adjustHotA  = 0
	adjustHotB  = 1
	adjustBias  = 0.85
	adjustSigma = 2.0 // degrees
)

// adjustRepeats is how many independent runs each mode gets; the best is
// reported (capacity is a maximum — noise only subtracts).
const adjustRepeats = 2

// adjustModelCost converts the bottleneck worker's measured receive count
// into modeled capacity (tuples/s): on the paper's cluster every received
// tuple costs the worker network receive + deserialisation + matching
// (tens of microseconds), so system throughput is the inverse of the
// bottleneck's share of the traffic. The harness measures that share on
// the live system — real routing, real migrations, real drain barriers —
// and applies the nominal per-tuple cost, the same single-box
// substitution the Figure 11 scalability experiment uses: goroutine
// workers on one machine cannot expose placement wins as wall-clock
// throughput because they share the same cores.
const adjustModelCost = 50 * time.Microsecond

// AdjustRecovery measures what the adaptive adjustment controller buys
// under a hotspot shift: modeled steady-state capacity before the shift,
// and after it, with static partitioning vs the auto controller (EWMA
// load sampling + θ/hysteresis/cooldown detector + cell migrations). The
// "vs static" column is the post-shift recovery factor — the committed
// BENCH_adjust.json baseline pins it at ≥1.2×.
func AdjustRecovery(sc Scale) []Table {
	sc = sc.orDefault()
	spec := workload.TweetsUS()
	placement := ""
	if sc.Wire {
		placement = "; all worker tasks behind loopback TCP, migrations cross the wire"
	}
	t := Table{
		Title: fmt.Sprintf("Adaptive adjustment: capacity recovery after a hotspot shift "+
			"(focus %d->%d, bias %.2f, modeled at %v/tuple from the measured bottleneck share%s)",
			adjustHotA, adjustHotB, adjustBias, adjustModelCost, placement),
		Header: []string{"mode", "pre-shift(tuples/s)", "post-shift(tuples/s)", "vs static", "migrations"},
	}
	var staticPost float64
	for _, mode := range []struct {
		name string
		auto bool
	}{
		{"static", false},
		{"auto-adjust", true},
	} {
		var r adjustResult
		var err error
		ok := false
		for rep := 0; rep < adjustRepeats; rep++ {
			rr, rerr := adjustRun(spec, sc, mode.auto)
			if rerr != nil {
				err = rerr
				continue // best-of: a later failed repeat must not discard an earlier measurement
			}
			if !ok || rr.post > r.post {
				r = rr
			}
			ok = true
		}
		if !ok {
			t.Rows = append(t.Rows, []string{mode.name, "ERR: " + err.Error(), "", "", ""})
			continue
		}
		if !mode.auto {
			staticPost = r.post
		}
		rel := "1.00x"
		if mode.auto && staticPost > 0 {
			rel = fmt.Sprintf("%.2fx", r.post/staticPost)
		}
		t.Rows = append(t.Rows, []string{
			mode.name, f0(r.pre), f0(r.post), rel, fmt.Sprint(r.migrations),
		})
	}
	return []Table{t}
}

type adjustResult struct {
	pre, post  float64
	migrations int
}

// modelCapacity converts one phase's per-worker receive deltas into
// modeled tuples/s: N tuples arrived, the bottleneck worker received
// maxShare of them, and each received tuple costs adjustModelCost.
func modelCapacity(before, after []int64, submitted int) float64 {
	var maxShare int64
	var total int64
	for i := range after {
		d := after[i] - before[i]
		total += d
		if d > maxShare {
			maxShare = d
		}
	}
	if maxShare == 0 || total == 0 {
		return 0
	}
	// Duplicated deliveries (an object routed to several workers) raise
	// total above submitted; capacity is what the bottleneck can sustain.
	return float64(submitted) / (float64(maxShare) * adjustModelCost.Seconds())
}

// adjustRun drives the hotspot-shift protocol through one live system:
// prewarm µ standing queries, measure the bottleneck share on hotspot A,
// shift the focus to hotspot B, give the controller a paced adaptation
// window (several detector intervals of wall-clock live traffic), then
// measure the steady-state bottleneck share on B. With sc.Wire every
// worker task runs behind a loopback-TCP node serve loop, so the
// controller's load samples arrive over the stats round and its
// migrations cross the wire.
func adjustRun(spec workload.DatasetSpec, sc Scale, auto bool) (adjustResult, error) {
	// The partitioner sees yesterday's skew: objects and queries focused
	// on A (today's live queries stay unbiased — that drift is the point).
	sample := workload.SampleFocused(spec, workload.Q1,
		sc.SampleObjects, sc.SampleQueries, sc.Seed, adjustHotA, adjustSigma, adjustBias)
	var acfg core.AdjustConfig
	if auto {
		// Sigma is looser than the paper's 1.25 default: the fitted
		// pre-shift state hovers well above 1 (the load model is only a
		// model), and migrating inside that band costs ingest stalls with
		// little balance to gain. The post-shift violation is an order of
		// magnitude, so a 2.0 trigger still fires immediately.
		acfg = core.AdjustConfig{
			Enabled:       true,
			Sigma:         2.0,
			Interval:      30 * time.Millisecond,
			Cooldown:      120 * time.Millisecond,
			SustainChecks: 2,
			MinWindowOps:  64,
		}
	}
	cfg := core.Config{
		Workers:      sc.Workers,
		Adjust:       acfg,
		PerTupleWork: sc.PerTupleWork,
	}
	if sc.Wire {
		nodeCtx, cancel := context.WithCancel(context.Background())
		defer cancel()
		addrs := make([]string, sc.Workers)
		for i := range addrs {
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				return adjustResult{}, lerr
			}
			go node.NewWorker(node.WorkerOptions{}).Serve(nodeCtx, ln)
			addrs[i] = ln.Addr().String()
		}
		if err := cfg.ConnectRemoteWorkers(addrs, sample, wire.Backoff{}); err != nil {
			return adjustResult{}, err
		}
	}
	sys, err := core.New(cfg, sample)
	if err != nil {
		return adjustResult{}, err
	}
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{
		Mu: sc.Mu1, Seed: sc.Seed,
		FocusBias: adjustBias, FocusHotspot: adjustHotA, FocusSigmaDeg: adjustSigma,
	})
	if err := sys.Start(context.Background()); err != nil {
		return adjustResult{}, err
	}
	warm := st.Prewarm(sc.Mu1)
	sys.SubmitAll(warm)
	sys.Drain()

	// Phase A: capacity with the skew the partitioner was fitted to.
	// Drain applies the phase fully, so the receive counters bracket
	// exactly this phase's traffic.
	c0 := sys.WorkerOpCounts()
	opsA := st.Take(sc.Ops)
	sys.SubmitAll(opsA)
	sys.Drain()
	res := adjustResult{pre: modelCapacity(c0, sys.WorkerOpCounts(), len(opsA))}

	// The shift: traffic moves to hotspot B while the standing-query
	// population stays. A paced adaptation window follows so wall-clock
	// time passes at a live-traffic rate — the controller needs several
	// Interval windows to detect the imbalance (hysteresis) and spread
	// the hot cells (one migration round per cooldown). Pacing sends 5ms
	// bursts: a per-op ticker cannot fire faster than the runtime's timer
	// resolution, which would silently throttle the rate below the
	// controller's MinWindowOps and starve the detector.
	st.FocusHotspot(adjustHotB)
	adaptOps := int(1.2 * sc.PacedRate)
	const burstEvery = 5 * time.Millisecond
	perBurst := int(sc.PacedRate * burstEvery.Seconds())
	if perBurst < 1 {
		perBurst = 1
	}
	ticker := time.NewTicker(burstEvery)
	for sent := 0; sent < adaptOps; {
		<-ticker.C
		for j := 0; j < perBurst && sent < adaptOps; j++ {
			sys.Submit(st.Next())
			sent++
		}
	}
	ticker.Stop()
	sys.Drain()

	// Phase B: steady-state capacity after the shift.
	c2 := sys.WorkerOpCounts()
	opsB := st.Take(2 * sc.Ops)
	sys.SubmitAll(opsB)
	sys.Drain()
	res.post = modelCapacity(c2, sys.WorkerOpCounts(), len(opsB))
	if err := sys.Close(); err != nil {
		return adjustResult{}, err
	}
	res.migrations = len(sys.Snapshot().Migrations)
	return res, nil
}

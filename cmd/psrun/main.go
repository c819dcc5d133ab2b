// Command psrun replays a JSONL workload (see psgen) through a PS2Stream
// topology and reports throughput, latency, match counts, memory, and any
// migrations, i.e. a single-shot deployment of the system.
//
// Usage:
//
//	psgen -dataset us -kind q1 -mu 10000 -ops 120000 | psrun -strategy hybrid -adjust
//	psrun -in workload.jsonl -strategy kdtree -workers 8
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ps2stream/internal/core"
	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/workload"
)

func builderFor(name string) (partition.Builder, error) {
	if name == "hybrid" || name == "" {
		return hybrid.Builder{}, nil
	}
	if b, ok := partition.Builders()[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

func main() {
	var (
		in         = flag.String("in", "-", "input JSONL file ('-' = stdin)")
		strategy   = flag.String("strategy", "hybrid", "distribution strategy: hybrid|metric|kdtree")
		workers    = flag.Int("workers", 8, "worker tasks")
		sampleN    = flag.Int("sample", 20000, "ops consumed as the partitioning sample")
		adjust     = flag.Bool("adjust", false, "enable dynamic load adjustment (hybrid only)")
		quiet      = flag.Bool("quiet", false, "suppress per-match output counting")
		checkpoint = flag.String("checkpoint", "", "write a snapshot of the live subscriptions here after the replay")
		restore    = flag.String("restore", "", "prime the system from this snapshot before the replay")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))

	// First pass: buffer the sample prefix to fit the strategy.
	var ops []model.Op
	var sampleObjs []*model.Object
	var sampleQrys []*model.Query
	bounds := geo.Rect{}
	first := true
	for len(ops) < *sampleN {
		var j workload.JSONOp
		if err := dec.Decode(&j); err == io.EOF {
			break
		} else if err != nil {
			fatal(err)
		}
		op, err := workload.DecodeOp(j)
		if err != nil {
			fatal(err)
		}
		ops = append(ops, op)
		switch op.Kind {
		case model.OpObject:
			sampleObjs = append(sampleObjs, op.Obj)
			p := geo.Rect{Min: op.Obj.Loc, Max: op.Obj.Loc}
			if first {
				bounds, first = p, false
			} else {
				bounds = bounds.Union(p)
			}
		case model.OpInsert:
			sampleQrys = append(sampleQrys, op.Query)
			if first {
				bounds, first = op.Query.Region, false
			} else {
				bounds = bounds.Union(op.Query.Region)
			}
		}
	}
	if first {
		fatal(fmt.Errorf("empty workload"))
	}
	b, err := builderFor(*strategy)
	if err != nil {
		fatal(err)
	}
	sample := partition.NewSample(sampleObjs, sampleQrys, bounds.Expand(0.5), load.DefaultCosts)
	cfg := core.Config{
		Workers: *workers,
		Builder: b,
	}
	if *adjust {
		cfg.Adjust = core.AdjustConfig{Enabled: true}
	}
	if !*quiet {
		cfg.OnMatch = func(model.Match) {}
	}
	sys, err := core.New(cfg, sample)
	if err != nil {
		fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		fatal(err)
	}

	restored := 0
	if *restore != "" {
		if restored, err = restoreFrom(sys, *restore); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	n := 0
	submit := func(op model.Op) {
		sys.Submit(op)
		n++
	}
	for _, op := range ops {
		submit(op)
	}
	for {
		var j workload.JSONOp
		if err := dec.Decode(&j); err == io.EOF {
			break
		} else if err != nil {
			fatal(err)
		}
		op, err := workload.DecodeOp(j)
		if err != nil {
			fatal(err)
		}
		submit(op)
	}
	if err := sys.Close(); err != nil {
		fatal(err)
	}
	el := time.Since(start)

	if *checkpoint != "" {
		f, err := os.Create(*checkpoint)
		if err != nil {
			fatal(err)
		}
		live, err := sys.Checkpoint(f)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint:      %d live subscriptions -> %s\n", live, *checkpoint)
	}

	snap := sys.Snapshot()
	fmt.Printf("strategy:        %s\n", sys.Assignment().Name())
	if restored > 0 {
		fmt.Printf("restored:        %d subscriptions\n", restored)
	}
	fmt.Printf("tuples:          %d in %v\n", n, el.Round(time.Millisecond))
	fmt.Printf("throughput:      %.0f tuples/s\n", float64(n)/el.Seconds())
	fmt.Printf("matches:         %d (dups removed: %d)\n", snap.Matches, snap.Duplicates)
	fmt.Printf("discarded:       %d objects with no live keyword\n", snap.Discarded)
	fmt.Printf("latency:         mean=%v p50=%v p99=%v\n", snap.Latency.Mean, snap.Latency.P50, snap.Latency.P99)
	fmt.Printf("dispatcher mem:  %d bytes\n", snap.DispatcherBytes)
	var wsum int64
	for _, wb := range snap.WorkerBytes {
		wsum += wb
	}
	fmt.Printf("worker mem:      %d bytes total across %d workers\n", wsum, len(snap.WorkerBytes))
	if len(snap.Migrations) > 0 {
		var bytes int64
		for _, m := range snap.Migrations {
			bytes += m.Bytes
		}
		fmt.Printf("migrations:      %d (total %d bytes moved)\n", len(snap.Migrations), bytes)
	}
}

// restoreFrom primes sys with the subscriptions of the snapshot at path.
// A snapshot taken over other bounds than the system's — psrun derives
// them from the workload's sample prefix — is refused with
// core.ErrBoundsMismatch: its subscriptions would land in the wrong cells.
func restoreFrom(sys *core.System, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return sys.Restore(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psrun:", err)
	os.Exit(1)
}

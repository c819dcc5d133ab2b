package node

import (
	"context"
	"net"
	"sync"
	"sync/atomic"

	"ps2stream/internal/dedup"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
)

// DefaultDedupWindow bounds a merger connection's duplicate-elimination
// memory in (query, object) pairs, mirroring core's default.
const DefaultDedupWindow = 1 << 15

// MergerOptions configures ServeMerger.
type MergerOptions struct {
	// Log receives serve-loop events; nil is silent.
	Log Logf
	// DedupWindow bounds per-connection duplicate-elimination memory in
	// (query, object) pairs (default DefaultDedupWindow). A connection
	// allocates its window when its first matches batch arrives, so a
	// connection that carries no match holds none.
	DedupWindow int
	// OnMatch receives every deduplicated match. Called from connection
	// goroutines (possibly concurrently); it must lock its own state.
	OnMatch func(model.Match)
	// Once exits once every session has ended and at least one ended
	// cleanly (Goodbye), for run-to-completion clusters.
	Once bool
}

// Merger is a merger node: it deduplicates and delivers the match
// streams remote peers send it. Each connection is one upstream merger
// task's hash share, so duplicate elimination — and the counters
// reported over that connection — are per-connection: a coordinator
// summing its merger transports' counts gets each match exactly once
// even when several tasks share one node. The node-wide totals are
// Counts.
type Merger struct {
	opts MergerOptions

	delivered  atomic.Int64
	duplicates atomic.Int64
}

// NewMerger returns an idle merger node.
func NewMerger(opts MergerOptions) *Merger {
	if opts.DedupWindow <= 0 {
		opts.DedupWindow = DefaultDedupWindow
	}
	return &Merger{opts: opts}
}

// Counts reports cumulative delivered/duplicate counters across all
// sessions.
func (m *Merger) Counts() (delivered, duplicates int64) {
	return m.delivered.Load(), m.duplicates.Load()
}

// Serve accepts match-stream connections on ln until ctx is cancelled
// (or, with Once, until all sessions ended and one ended cleanly).
func (m *Merger) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	var wg sync.WaitGroup
	var mu sync.Mutex
	active, sawClean := 0, false
	cleanExit := make(chan struct{}, 1)
	for {
		nc, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			select {
			case <-cleanExit:
				return nil
			default:
				return err
			}
		}
		mu.Lock()
		active++
		mu.Unlock()
		wg.Add(1)
		go func(nc net.Conn) {
			defer wg.Done()
			clean, err := m.serveConn(wire.NewConn(nc))
			if err != nil {
				m.opts.Log.printf("merger: session from %s: %v", nc.RemoteAddr(), err)
			}
			mu.Lock()
			active--
			if clean {
				sawClean = true
			}
			exit := m.opts.Once && active == 0 && sawClean
			mu.Unlock()
			if exit {
				select {
				case cleanExit <- struct{}{}:
				default:
				}
				ln.Close()
			}
		}(nc)
	}
}

// serveConn runs one upstream session with its own dedup window.
func (m *Merger) serveConn(conn *wire.Conn) (clean bool, err error) {
	defer conn.Close()
	hello, err := recvHello(conn)
	if err != nil {
		return false, err
	}
	// One connection per upstream task keeps dedup windows
	// per-connection.
	if err := conn.Send(wire.Welcome{Role: wire.RoleMerger, Task: hello.Task}); err != nil {
		return false, err
	}
	var win *dedup.Window           // made by the first matches batch
	var delivered, duplicates int64 // this session's share
	var matches []wire.MatchEnv     // decode scratch reused across batches
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return false, err
		}
		switch typ {
		case wire.TypeMatchBatch:
			if matches, err = wire.DecodeBinMatchBatch(payload, matches[:0]); err != nil {
				return false, err
			}
			if win == nil {
				win = dedup.NewWindow(m.opts.DedupWindow)
			}
			for i := range matches {
				me := &matches[i]
				if !win.Observe([2]uint64{me.M.QueryID, me.M.ObjectID}) {
					duplicates++
					m.duplicates.Add(1)
					continue
				}
				if m.opts.OnMatch != nil {
					m.opts.OnMatch(me.M)
				}
				delivered++
				m.delivered.Add(1)
			}
		case wire.TypeStatsReq:
			sr, err := wire.DecodeBinStatsReq(payload)
			if err != nil {
				return false, err
			}
			reply := wire.StatsReply{Seq: sr.Seq, Delivered: delivered, Duplicates: duplicates}
			if err := conn.Send(reply); err != nil {
				return false, err
			}
		case wire.TypeGoodbye:
			_ = conn.Send(wire.Goodbye{})
			return true, nil
		default:
			m.opts.Log.printf("merger: skipping unknown frame type %d", typ)
		}
	}
}

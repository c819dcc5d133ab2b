package core

import (
	"bufio"
	"context"
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ps2stream/internal/model"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// TestSlotLifecycle drives every legal change of a slot's state and checks
// that moveLocked refuses every other one and leaves the slot as it was.
// Each state is reached from a fresh spare by a legal path, which also
// walks spare→up, up→down→replaying→up, down→failed→gone and
// up→closing→gone.
func TestSlotLifecycle(t *testing.T) {
	paths := map[slotState][]slotState{
		stateSpare:     nil,
		stateUp:        {stateUp},
		stateDown:      {stateUp, stateDown},
		stateReplaying: {stateUp, stateDown, stateReplaying},
		stateClosing:   {stateUp, stateClosing},
		stateFailed:    {stateUp, stateDown, stateFailed},
		stateGone:      {stateUp, stateClosing, stateGone},
	}
	legal := map[[2]slotState]bool{
		{stateSpare, stateUp}: true, {stateSpare, stateClosing}: true,
		{stateUp, stateDown}: true, {stateUp, stateFailed}: true, {stateUp, stateClosing}: true,
		{stateDown, stateReplaying}: true, {stateDown, stateFailed}: true, {stateDown, stateClosing}: true,
		{stateReplaying, stateUp}: true, {stateReplaying, stateDown}: true, {stateReplaying, stateClosing}: true,
		{stateClosing, stateGone}: true, {stateFailed, stateGone}: true,
	}
	members := []slotState{stateUp, stateDown, stateReplaying, stateFailed}
	at := func(t *testing.T, path []slotState) *workerHop {
		t.Helper()
		h := &workerHop{task: 3, notify: make(chan struct{}), lost: &lostSlots{done: make(chan struct{})}}
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, st := range path {
			if !h.moveLocked(st, errors.New("test")) {
				t.Fatalf("path %v: the move to %v was refused", path, st)
			}
		}
		return h
	}
	for from, path := range paths {
		if got := from.member(); got != slices.Contains(members, from) {
			t.Errorf("%v.member() = %v", from, got)
		}
		for to := range paths {
			h := at(t, path)
			notify := h.notify
			h.mu.Lock()
			moved := h.moveLocked(to, errors.New("node lost"))
			h.mu.Unlock()
			want := legal[[2]slotState{from, to}]
			st, cause := h.status()
			switch {
			case moved != want:
				t.Errorf("%v→%v: moved %v, want %v", from, to, moved, want)
			case want && st != to, !want && st != from:
				t.Errorf("%v→%v: the slot is %v", from, to, st)
			case want != cancelled(notify):
				t.Errorf("%v→%v: waiters woken %v, want %v", from, to, cancelled(notify), want)
			case (to == stateFailed && want) != cancelled(h.lost.done) && from != stateFailed:
				t.Errorf("%v→%v: Drain woken %v", from, to, cancelled(h.lost.done))
			}
			if to == stateFailed && want && (!errors.Is(cause, ErrWorkerUnrecoverable) || !strings.Contains(cause.Error(), "node lost")) {
				t.Errorf("%v→failed: cause %v", from, cause)
			}
		}
	}

	// A slot that reaches gone from failed keeps its cause, and Drain's
	// failure stays; one that reaches it through closing has none.
	h := at(t, paths[stateFailed])
	h.mu.Lock()
	h.moveLocked(stateGone, nil)
	h.mu.Unlock()
	if st, cause := h.status(); st != stateGone || !errors.Is(cause, ErrWorkerUnrecoverable) || !errors.Is(h.lost.err, ErrWorkerUnrecoverable) {
		t.Errorf("failed→gone: %v, cause %v, Drain reads %v", st, cause, h.lost.err)
	}
	if _, cause := at(t, paths[stateGone]).status(); cause != nil {
		t.Errorf("closing→gone: cause %v", cause)
	}
}

// awaitState waits until slot w is in one of states.
func awaitState(t *testing.T, sys *System, w int, states ...slotState) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		st, next := sys.slot(w)
		if slices.Contains(states, st) {
			return
		}
		select {
		case <-next:
		case <-deadline:
			t.Fatalf("worker %d is %v after 30s, want one of %v", w, st, states)
		}
	}
}

// TestFailedSlotStopsLogging: once recovery has given up on a slot, the
// operations routed to it are dropped, not appended to an op log that no
// replay will read; Drain reports the loss.
func TestFailedSlotStopsLogging(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 29, 0)
	victim := startElasticNode(t, "")
	cfg := Config{Workers: 1, Mergers: 1,
		Builder: &idRouter{route: func(uint64) int { return 0 }},
		Recovery: RecoveryConfig{
			Enabled:           true,
			HeartbeatInterval: 50 * time.Millisecond,
			RedialTimeout:     200 * time.Millisecond,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	at := sys.Bounds().Center()
	for id := uint64(1); id <= 100; id++ {
		sys.Submit(objectOp(id, "x", at))
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	victim.kill()
	awaitState(t, sys, 0, stateFailed, stateGone)
	h := sys.hop(0)
	tail, sent := h.log.TailLen(), sys.WorkerOpCounts()[0]
	for id := uint64(101); id <= 1100; id++ {
		sys.Submit(objectOp(id, "x", at))
	}
	if err := sys.Drain(); !errors.Is(err, ErrWorkerUnrecoverable) {
		t.Errorf("Drain after the slot failed = %v, want ErrWorkerUnrecoverable", err)
	}
	if err := sys.Close(); err != nil { // every routed batch has passed the slot's bolt
		t.Fatal(err)
	}
	if got := sys.WorkerOpCounts()[0] - sent; got != 1000 {
		t.Fatalf("vacuous: the slot's bolt took %d of the 1000 objects", got)
	}
	if got := h.log.TailLen(); got != tail {
		t.Errorf("the failed slot's op log grew from %d to %d entries", tail, got)
	}
}

// scrapeMembership reads worker w's ps2_worker_active and ps2_worker_down
// off the registry's Prometheus exposition as it is written, and stops
// reading once it has both: later series read the slot's stats under
// owedMu, which the caller may hold. wait returns once the scrape has
// ended, which needs owedMu free.
func scrapeMembership(t *testing.T, sys *System, w int) (active, down float64, wait func()) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		pw.CloseWithError(sys.Registry().WritePrometheus(pw))
	}()
	label := `{worker="` + strconv.Itoa(w) + `"}`
	want := map[string]*float64{"ps2_worker_active" + label: &active, "ps2_worker_down" + label: &down}
	sc := bufio.NewScanner(pr)
	for len(want) > 0 && sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		if p := want[name]; p != nil {
			var err error
			if *p, err = strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("%s: %v", sc.Text(), err)
			}
			delete(want, name)
		}
	}
	pr.Close()
	if len(want) > 0 {
		t.Fatalf("the scrape has no %v", want)
	}
	return active, down, func() { <-done }
}

// TestMembershipGaugesFollowTheLifecycle scrapes a loopback slot's
// membership gauges through kill, replay and recovery, and after Close:
// the slot stays a member until it is gone, and is down from the kill
// until its replay has finished. Holding owedMu stops the replay at its
// first round, the op log's base, so the replaying slot is scraped too.
func TestMembershipGaugesFollowTheLifecycle(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 31, 0)
	victim := startElasticNode(t, "")
	cfg := Config{Workers: 1, Mergers: 1,
		Builder: &idRouter{route: func(uint64) int { return 0 }},
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: time.Hour,
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	check := func(phase string, active, down float64, wantActive, wantDown float64) {
		t.Helper()
		if active != wantActive || down != wantDown {
			t.Errorf("%s: ps2_worker_active %v, ps2_worker_down %v, want %v and %v", phase, active, down, wantActive, wantDown)
		}
	}
	scrape := func(phase string, wantActive, wantDown float64) {
		t.Helper()
		active, down, wait := scrapeMembership(t, sys, 0)
		wait()
		check(phase, active, down, wantActive, wantDown)
	}
	scrape("up", 1, 0)
	at := sys.Bounds().Center()
	// One subscription, so the base holds a page to replay.
	sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{ID: 1, Expr: model.And("x"), Region: sys.Bounds()}})
	for id := uint64(1); id <= 10; id++ {
		sys.Submit(objectOp(id, "x", at))
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	h := sys.hop(0)
	if !sys.checkpointHop(h) {
		t.Fatal("checkpoint failed")
	}
	if base, _, _ := h.log.Replay(); len(base) == 0 {
		t.Fatal("vacuous: the checkpoint stored no base, so the replay would not stop on owedMu")
	}
	victim.kill()
	awaitState(t, sys, 0, stateDown)
	scrape("down", 1, 1)

	h.owedMu.Lock()
	startElasticNode(t, victim.addr)
	awaitState(t, sys, 0, stateReplaying)
	active, down, wait := scrapeMembership(t, sys, 0)
	h.owedMu.Unlock()
	wait()
	check("replaying", active, down, 1, 1)

	awaitState(t, sys, 0, stateUp)
	scrape("up again", 1, 0)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	scrape("gone", 0, 0)
}

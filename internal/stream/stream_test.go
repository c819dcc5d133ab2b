package stream

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rangeSpout emits ints [0, n).
func rangeSpout(n int, streamName string) func(task int) Spout {
	return func(task int) Spout {
		i := 0
		return SpoutFunc(func(c Collector) bool {
			if i >= n {
				return false
			}
			c.Emit(streamName, Tuple{Value: i})
			i++
			return true
		})
	}
}

// sink collects tuples thread-safely.
type sink struct {
	mu   sync.Mutex
	vals []interface{}
}

func (s *sink) add(v interface{}) {
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.mu.Unlock()
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

func TestLinearPipeline(t *testing.T) {
	tp := NewTopology(16)
	tp.AddSpout("src", rangeSpout(100, "nums"), 1, "nums")
	var doubled atomic.Int64
	tp.AddBolt("double", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) {
			c.Emit("doubled", Tuple{Value: tu.Value.(int) * 2})
		})
	}, 2, "doubled").Shuffle("nums")
	out := &sink{}
	tp.AddBolt("sink", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) {
			doubled.Add(int64(tu.Value.(int)))
			out.add(tu.Value)
		})
	}, 1).Shuffle("doubled")
	if err := tp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if out.len() != 100 {
		t.Fatalf("sink received %d tuples, want 100", out.len())
	}
	if got := doubled.Load(); got != 2*99*100/2 {
		t.Errorf("sum = %d, want %d", got, 2*99*100/2)
	}
}

func TestMultiStageFanIn(t *testing.T) {
	// Two spouts feed one bolt; termination must wait for both.
	tp := NewTopology(8)
	tp.AddSpout("a", rangeSpout(40, "s"), 2, "s")
	tp.AddSpout("b", rangeSpout(30, "s"), 1, "s")
	var n atomic.Int64
	tp.AddBolt("sink", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) { n.Add(1) })
	}, 2).Shuffle("s")
	if err := tp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 2*40+30 {
		t.Errorf("received %d, want 110", got)
	}
}

func TestMultipleOutputStreamsOneSubscriber(t *testing.T) {
	// One producer emits on two streams consumed by the same bolt:
	// termination accounting must not double-count the producer.
	tp := NewTopology(8)
	tp.AddSpout("src", func(task int) Spout {
		i := 0
		return SpoutFunc(func(c Collector) bool {
			if i >= 10 {
				return false
			}
			c.Emit("s1", Tuple{Value: i})
			c.Emit("s2", Tuple{Value: i})
			i++
			return true
		})
	}, 1, "s1", "s2")
	var n atomic.Int64
	tp.AddBolt("sink", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) { n.Add(1) })
	}, 1).Shuffle("s1").Shuffle("s2")
	done := make(chan error, 1)
	go func() { done <- tp.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("topology did not terminate (producer accounting bug)")
	}
	if got := n.Load(); got != 20 {
		t.Errorf("received %d, want 20", got)
	}
}

func TestContextCancellation(t *testing.T) {
	tp := NewTopology(4)
	// Infinite spout.
	tp.AddSpout("src", func(task int) Spout {
		return SpoutFunc(func(c Collector) bool {
			c.Emit("s", Tuple{Value: 1})
			return true
		})
	}, 1, "s")
	tp.AddBolt("slow", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) {
			time.Sleep(time.Millisecond)
		})
	}, 1).Shuffle("s")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := tp.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run = %v, want deadline exceeded", err)
	}
}

func TestPanicRecovery(t *testing.T) {
	tp := NewTopology(4)
	tp.AddSpout("src", rangeSpout(10, "s"), 1, "s")
	tp.AddBolt("boom", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) {
			if tu.Value.(int) == 5 {
				panic("kaboom")
			}
		})
	}, 1).Shuffle("s")
	err := tp.Run(context.Background())
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestInvalidTopologies(t *testing.T) {
	t.Run("duplicate name", func(t *testing.T) {
		tp := NewTopology(4)
		tp.AddSpout("x", rangeSpout(1, "s"), 1, "s")
		tp.AddBolt("x", func(int) Bolt { return BoltFunc(func(Tuple, Collector) {}) }, 1).Shuffle("s")
		if err := tp.Run(context.Background()); !errors.Is(err, errInvalidTopology) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("orphan subscription", func(t *testing.T) {
		tp := NewTopology(4)
		tp.AddBolt("b", func(int) Bolt { return BoltFunc(func(Tuple, Collector) {}) }, 1).Shuffle("ghost")
		if err := tp.Run(context.Background()); !errors.Is(err, errInvalidTopology) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("zero parallelism", func(t *testing.T) {
		tp := NewTopology(4)
		tp.AddSpout("s", rangeSpout(1, "s"), 0, "s")
		if err := tp.Run(context.Background()); !errors.Is(err, errInvalidTopology) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestBackpressureDoesNotDrop(t *testing.T) {
	// Tiny queues, fast producer, slow consumer: everything still
	// arrives.
	tp := NewTopology(1)
	tp.AddSpout("src", rangeSpout(500, "s"), 1, "s")
	var n atomic.Int64
	tp.AddBolt("slow", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) {
			if n.Add(1)%100 == 0 {
				time.Sleep(time.Millisecond)
			}
		})
	}, 1).Shuffle("s")
	if err := tp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 500 {
		t.Errorf("received %d, want 500", got)
	}
}

func TestEmitOnUndeclaredStreamPanics(t *testing.T) {
	tp := NewTopology(4)
	tp.AddSpout("src", func(task int) Spout {
		return SpoutFunc(func(c Collector) bool {
			c.Emit("undeclared", Tuple{Value: 1})
			return false
		})
	}, 1, "declared")
	tp.AddBolt("sink", func(int) Bolt { return BoltFunc(func(Tuple, Collector) {}) }, 1).Shuffle("declared")
	if err := tp.Run(context.Background()); err == nil {
		t.Error("expected error from undeclared-stream emit")
	}
}

// TestBatchedEmissionPreservesPerTaskFIFO: tuples must arrive at their
// task in emission order when they travel inside []Tuple batches,
// including the final partial batch flushed at spout exit.
func TestBatchedEmissionPreservesPerTaskFIFO(t *testing.T) {
	type seqTuple struct{ key, seq int }
	const keys, perKey = 8, 200 // keys*perKey not divisible by the batch size: partials must flush
	tp := NewTopology(16)
	tp.SetBatchSize(7)
	tp.AddSpout("src", func(task int) Spout {
		i := 0
		return SpoutFunc(func(c Collector) bool {
			if i >= keys*perKey {
				return false
			}
			c.Emit("seq", Tuple{Value: seqTuple{key: i % keys, seq: i / keys}})
			i++
			return true
		})
	}, 1, "seq")
	var mu sync.Mutex
	lastSeq := map[int]int{}
	violations := 0
	tp.AddBolt("check", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) {
			st := tu.Value.(seqTuple)
			mu.Lock()
			if prev, ok := lastSeq[st.key]; ok && st.seq != prev+1 {
				violations++
			}
			lastSeq[st.key] = st.seq
			mu.Unlock()
		})
	}, 1).Shuffle("seq")
	if err := tp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Errorf("%d per-key ordering violations under batching", violations)
	}
	if len(lastSeq) != keys {
		t.Errorf("saw %d keys, want %d", len(lastSeq), keys)
	}
	for k, s := range lastSeq {
		if s != perKey-1 {
			t.Errorf("key %d ended at seq %d, want %d (partial batch dropped?)", k, s, perKey-1)
		}
	}
}

// TestFlushDrainsPartialBatchesUnderCancellation: a Flush whose sends can
// never complete (downstream queue full, consumer wedged) must abandon the
// buffered tuples once the run context is cancelled instead of
// deadlocking the producing task — and Run must return.
func TestFlushDrainsPartialBatchesUnderCancellation(t *testing.T) {
	tp := NewTopology(1) // one-batch queue: the second flush must block
	tp.SetBatchSize(64)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	emitted := make(chan struct{})
	tp.AddSpout("src", func(task int) Spout {
		step := 0
		return SpoutFunc(func(c Collector) bool {
			step++
			switch step {
			case 1:
				// Fills the single queue slot.
				c.Emit("s", Tuple{Value: 1})
				c.Flush()
				return true
			case 2:
				// Parked in a partial batch; the engine's exit flush must
				// abandon it under the cancelled context.
				c.Emit("s", Tuple{Value: 2})
				close(emitted)
				<-release
				return false
			}
			return false
		})
	}, 1, "s")
	tp.AddBolt("wedge", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) {
			<-release // holds the first batch, never draining the queue
		})
	}, 1).Shuffle("s")
	done := make(chan error, 1)
	go func() { done <- tp.Run(ctx) }()
	<-emitted
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked: exit flush did not abandon its partial batch on cancellation")
	}
}

// TestExplicitFlushDeliversPartialBatches: tuples buffered below the batch
// size must reach the consumer after Collector.Flush without waiting for
// the batch to fill.
func TestExplicitFlushDeliversPartialBatches(t *testing.T) {
	tp := NewTopology(16)
	tp.SetBatchSize(1024) // far more than emitted: only Flush can deliver
	got := make(chan int, 8)
	tp.AddSpout("src", func(task int) Spout {
		step := 0
		return SpoutFunc(func(c Collector) bool {
			step++
			if step > 1 {
				// Wait until the flushed tuples arrive, then finish.
				for len(got) < 3 {
					time.Sleep(time.Millisecond)
				}
				return false
			}
			for i := 0; i < 3; i++ {
				c.Emit("s", Tuple{Value: i})
			}
			c.Flush()
			return true
		})
	}, 1, "s")
	tp.AddBolt("sink", func(task int) Bolt {
		return BoltFunc(func(tu Tuple, c Collector) { got <- tu.Value.(int) })
	}, 1).Shuffle("s")
	if err := tp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("received %d tuples, want 3", len(got))
	}
}

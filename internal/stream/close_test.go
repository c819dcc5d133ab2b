package stream

import (
	"context"
	"sync"
	"testing"
)

// closingSpout/closingBolt verify the engine's io.Closer hook: Close
// fires exactly once per task instance, after the component stops.
type closingSpout struct {
	n       int
	closed  *sync.WaitGroup
	counter *int32
	mu      *sync.Mutex
}

func (s *closingSpout) Next(c Collector) bool {
	if s.n <= 0 {
		return false
	}
	s.n--
	c.Emit("data", Tuple{Value: s.n})
	return true
}

func (s *closingSpout) Close() error {
	s.mu.Lock()
	*s.counter++
	s.mu.Unlock()
	s.closed.Done()
	return nil
}

type closingBolt struct {
	mu      *sync.Mutex
	counter *int32
	closed  *sync.WaitGroup
}

func (b *closingBolt) Process(tu Tuple, c Collector) {}

func (b *closingBolt) Close() error {
	b.mu.Lock()
	*b.counter++
	b.mu.Unlock()
	b.closed.Done()
	return nil
}

func TestComponentCloseHook(t *testing.T) {
	var mu sync.Mutex
	var spoutCloses, boltCloses int32
	var wg sync.WaitGroup
	wg.Add(1 + 3) // one spout task, three bolt tasks

	topo := NewTopology(8)
	topo.AddSpout("src", func(task int) Spout {
		return &closingSpout{n: 10, closed: &wg, counter: &spoutCloses, mu: &mu}
	}, 1, "data")
	topo.AddBolt("sink", func(task int) Bolt {
		return &closingBolt{mu: &mu, counter: &boltCloses, closed: &wg}
	}, 3).Shuffle("data")

	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if spoutCloses != 1 {
		t.Errorf("spout Close ran %d times, want 1", spoutCloses)
	}
	if boltCloses != 3 {
		t.Errorf("bolt Close ran %d times, want 3 (one per task)", boltCloses)
	}
}

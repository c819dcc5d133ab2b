package dedup

import (
	"math/rand"
	"testing"
)

func TestWindowDedups(t *testing.T) {
	w := NewWindow(8)
	if !w.Observe([2]uint64{1, 2}) {
		t.Error("first sighting reported as duplicate")
	}
	if w.Observe([2]uint64{1, 2}) {
		t.Error("repeat within window reported as new")
	}
	if !w.Observe([2]uint64{1, 3}) {
		t.Error("distinct key reported as duplicate")
	}
}

func TestWindowEvictsFIFO(t *testing.T) {
	w := NewWindow(2)
	w.Observe([2]uint64{1, 0})
	w.Observe([2]uint64{2, 0})
	// Key 3 evicts key 1 (the oldest).
	w.Observe([2]uint64{3, 0})
	if !w.Observe([2]uint64{1, 0}) {
		t.Error("evicted key still reported as duplicate")
	}
	// Observing 1 again evicted 2.
	if !w.Observe([2]uint64{2, 0}) {
		t.Error("key 2 should have been evicted by now")
	}
	if w.Observe([2]uint64{1, 0}) {
		t.Error("key 1 is inside the window and must read as duplicate")
	}
}

func TestWindowMinimumCapacity(t *testing.T) {
	w := NewWindow(0)
	if !w.Observe([2]uint64{1, 1}) || w.Observe([2]uint64{1, 1}) {
		t.Error("capacity-1 window misbehaved on the same key")
	}
	if !w.Observe([2]uint64{2, 2}) || !w.Observe([2]uint64{1, 1}) {
		t.Error("capacity-1 window should remember only the latest key")
	}
}

// sliceWindow is the window written as its definition: the last capacity
// new keys in a slice, searched by scanning.
type sliceWindow struct {
	keys     [][2]uint64
	capacity int
}

func (s *sliceWindow) observe(key [2]uint64) bool {
	for _, k := range s.keys {
		if k == key {
			return false
		}
	}
	if len(s.keys) == s.capacity {
		s.keys = s.keys[1:]
	}
	s.keys = append(s.keys, key)
	return true
}

// collidingKeys returns n distinct keys whose probe sequences in w all
// start at the same table position.
func collidingKeys(w *Window, n int) [][2]uint64 {
	var out [][2]uint64
	for k := uint64(0); len(out) < n; k++ {
		if key := [2]uint64{k, k >> 3}; hash32(key)>>w.shift == 1 {
			out = append(out, key)
		}
	}
	return out
}

// TestWindowAgainstSliceReference replays long random key streams — new
// keys, repeats from inside and from just outside the window, and keys
// that share a home position in the table — and requires the reference's
// answer on every Observe.
func TestWindowAgainstSliceReference(t *testing.T) {
	for _, tc := range []struct{ capacity, observes int }{
		{1, 50000}, {2, 50000}, {7, 100000}, {1 << 10, 100000}, {1 << 15, 100000},
	} {
		rng := rand.New(rand.NewSource(int64(tc.capacity)))
		w := NewWindow(tc.capacity)
		ref := &sliceWindow{capacity: tc.capacity}
		colliding := collidingKeys(w, min(3*tc.capacity, 64))
		var history [][2]uint64
		for i := 0; i < tc.observes; i++ {
			var key [2]uint64
			switch r := rng.Intn(10); {
			case r < 5 || len(history) == 0:
				key = [2]uint64{rng.Uint64() >> uint(rng.Intn(64)), uint64(i)}
			case r < 8:
				// Around the window's edge: sometimes still remembered,
				// sometimes just evicted.
				back := 1 + rng.Intn(2*tc.capacity)
				key = history[max(0, len(history)-back)]
			default:
				key = colliding[rng.Intn(len(colliding))]
			}
			history = append(history, key)
			if got, want := w.Observe(key), ref.observe(key); got != want {
				t.Fatalf("capacity %d, observe %d of key %v: new = %v, reference says %v", tc.capacity, i, key, got, want)
			}
		}
	}
}

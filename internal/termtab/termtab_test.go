package termtab

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

func TestDictIDsStartAtOneAndTermInvertsID(t *testing.T) {
	var d Dict
	if id := d.Find("a"); id != 0 {
		t.Fatalf("empty dictionary finds id %d", id)
	}
	terms := []string{"a", "b", "", "a", "c", "b"}
	want := []uint32{1, 2, 3, 1, 4, 2}
	for i, term := range terms {
		if id := d.ID(term); id != want[i] {
			t.Fatalf("ID(%q) = %d, want %d", term, id, want[i])
		}
	}
	if id := d.Find("z"); id != 0 {
		t.Errorf("Find of an unknown term returned %d", id)
	}
	if id := d.ID("z"); id != 5 {
		t.Errorf("ID after a Find of the same new term = %d, want 5: Find must not assign", id)
	}
	for i := 0; i < 1000; i++ {
		term := fmt.Sprintf("t%d", i)
		id := d.ID(term)
		if got := d.Term(id); got != term {
			t.Fatalf("Term(ID(%q)) = %q", term, got)
		}
		if d.Find(term) != id {
			t.Fatalf("Find(%q) = %d, ID gave %d", term, d.Find(term), id)
		}
	}
	// Every id survives the growths that followed it.
	for i := 0; i < 1000; i++ {
		term := fmt.Sprintf("t%d", i)
		if id := d.Find(term); id != uint32(6+i) || d.Term(id) != term {
			t.Fatalf("after growing: Find(%q) = %d, want %d", term, id, 6+i)
		}
	}
}

// One goroutine interns while others look terms up: a reader never sees
// an id without its term, and once a term's id has been handed over it
// finds that id from then on, across every growth of the arrays.
func TestDictFindWhileOneWriterAdds(t *testing.T) {
	var d Dict
	const n = 20000
	published := make(chan uint32, n) // every id the writer hands over
	go func() {
		defer close(published)
		for i := 0; i < n; i++ {
			published <- d.ID(fmt.Sprintf("term%d", i))
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range published {
				term := d.Term(id)
				if got := d.Find(term); got != id {
					t.Errorf("Find(%q) = %d after ID gave %d", term, got, id)
					return
				}
				if d.Find(term+"x") != 0 {
					t.Errorf("Find(%q) found a term never added", term+"x")
					return
				}
				// A term the writer may be adding right now.
				ahead := fmt.Sprintf("term%d", id+2)
				if got := d.Find(ahead); got != 0 && d.Term(got) != ahead {
					t.Errorf("Find(%q) = %d, whose term is %q", ahead, got, d.Term(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if term := fmt.Sprintf("term%d", i); d.Term(uint32(i+1)) != term {
			t.Fatalf("Term(%d) = %q, want %q", i+1, d.Term(uint32(i+1)), term)
		}
	}
}

// Several goroutines intern overlapping terms, in different orders,
// while others look them up and measure the dictionary: every term gets
// exactly one id, whoever asked first, and every id maps back to its
// term. Run it under -race.
func TestDictIDFromManyGoroutines(t *testing.T) {
	var d Dict
	const (
		n       = 5000
		writers = 4
	)
	got := make([][]uint32, writers) // got[w][i] is the id writer w was given for term i
	stop := make(chan struct{})
	var readers, wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i = (i + 7) % n {
				select {
				case <-stop:
					return
				default:
				}
				term := fmt.Sprintf("term%d", i)
				if id := d.Find(term); id != 0 && d.Term(id) != term {
					t.Errorf("Find(%q) = %d, whose term is %q", term, id, d.Term(id))
					return
				}
				if i%512 == 0 && d.Footprint() < 0 {
					t.Error("negative footprint")
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		got[w] = make([]uint32, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(n)
			for _, i := range order {
				got[w][i] = d.ID(fmt.Sprintf("term%d", i))
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	seen := make(map[uint32]int, n)
	for i := 0; i < n; i++ {
		term := fmt.Sprintf("term%d", i)
		id := got[0][i]
		for w := 1; w < writers; w++ {
			if got[w][i] != id {
				t.Fatalf("%q got id %d from writer 0 and %d from writer %d", term, id, got[w][i], w)
			}
		}
		if id == 0 || id > n {
			t.Fatalf("%q got id %d, outside 1..%d", term, id, n)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("id %d given to term%d and %q", id, prev, term)
		}
		seen[id] = i
		if d.Term(id) != term || d.Find(term) != id {
			t.Fatalf("id %d: Term = %q, Find(%q) = %d", id, d.Term(id), term, d.Find(term))
		}
	}
}

type pair struct{ a, b uint32 }

// homedAt returns n distinct keys whose home position in a table of the
// given size is pos.
func homedAt(size, pos, n int) []uint32 {
	shift := 32 - bits.TrailingZeros(uint(size))
	var out []uint32
	for k := uint32(1); len(out) < n; k++ {
		if int((k*hashMul)>>shift) == pos {
			out = append(out, k)
		}
	}
	return out
}

// checkRuns fails unless every key is found where it sits and every
// position between a key's home and that key is occupied: the invariant
// a removal without tombstones must keep.
func checkRuns(t *testing.T, tab *Table[pair], step string) {
	t.Helper()
	tabs := tab.Entries()
	mask := uint32(len(tabs) - 1)
	for p, e := range tabs {
		if e.Key == 0 {
			continue
		}
		if tab.Find(e.Key) != p || e.Val.a != e.Key {
			t.Fatalf("%s: key %d at %d, Find gives %d, value %d", step, e.Key, p, tab.Find(e.Key), e.Val.a)
		}
		for i := (e.Key * hashMul) >> tab.shift; i != uint32(p); i = (i + 1) & mask {
			if tabs[i].Key == 0 {
				t.Fatalf("%s: gap at %d on the probe sequence of key %d at %d", step, i, e.Key, p)
			}
		}
	}
}

// Removal shifts entries back across the end of the array: three keys
// homed at the last position spill into positions 0 and 1, with a key
// homed at 0 behind them, and removing them one by one from the last
// position must pull the others back along their probe sequences.
func TestTableRemoveAcrossWraparound(t *testing.T) {
	const size = 8
	keys := append(homedAt(size, size-1, 3), homedAt(size, 0, 1)...)
	var tab Table[pair]
	for _, k := range keys {
		tab.Put(k, pair{a: k})
	}
	if len(tab.Entries()) != size {
		t.Fatalf("table of 4 keys has %d positions, want %d", len(tab.Entries()), size)
	}
	checkRuns(t, &tab, "filled")
	for p := 0; p < 2; p++ {
		if e := tab.Entries()[p]; e.Key == 0 || (e.Key*hashMul)>>tab.shift != size-1 {
			t.Fatalf("position %d holds key %d, want one homed at %d", p, e.Key, size-1)
		}
	}
	for n := 3; n > 0; n-- {
		tab.Remove(size - 1)
		checkRuns(t, &tab, fmt.Sprintf("%d left", n))
		if tab.Len() != n {
			t.Fatalf("Len %d, want %d", tab.Len(), n)
		}
	}
	if e := tab.Entries()[0]; e.Key != keys[3] {
		t.Fatalf("after the keys homed at %d went, position 0 holds %d, want the key homed there", size-1, e.Key)
	}
}

// The array doubles when a key would fill more than three quarters of it.
func TestTableGrowsAtThreeQuarters(t *testing.T) {
	var tab Table[pair]
	if tab.Entries() != nil || tab.Footprint() != 0 {
		t.Fatal("the zero table holds an array")
	}
	for n := 1; n <= 100; n++ {
		tab.Put(uint32(n), pair{})
		want := 4
		for n*4 > want*3 {
			want *= 2
		}
		if got := len(tab.Entries()); got != want {
			t.Fatalf("%d keys in %d positions, want %d", n, got, want)
		}
		if tab.Footprint() != int64(want)*12 {
			t.Fatalf("Footprint %d for %d positions of 12 bytes", tab.Footprint(), want)
		}
	}
}

// Removing the last key releases the array, and the table is usable
// again afterwards.
func TestTableReleasedWithLastKey(t *testing.T) {
	var tab Table[pair]
	for k := uint32(1); k <= 20; k++ {
		tab.Put(k, pair{a: k})
	}
	for k := uint32(20); k >= 1; k-- {
		if tab.Entries() == nil {
			t.Fatalf("array released with %d keys left", k)
		}
		tab.Remove(tab.Find(k))
	}
	if tab.Entries() != nil || tab.Len() != 0 || tab.Footprint() != 0 {
		t.Fatalf("after the last removal: %d positions, Len %d, Footprint %d", len(tab.Entries()), tab.Len(), tab.Footprint())
	}
	tab.Put(5, pair{a: 5})
	if i := tab.Find(5); i < 0 || tab.Entries()[i].Val.a != 5 {
		t.Fatal("a released table does not take a new key")
	}
	tab.Clear()
	if tab.Entries() != nil || tab.Find(5) >= 0 {
		t.Fatal("Clear kept the array or the key")
	}
}

// A random sequence of puts, value updates and removals agrees with a map
// at every step.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[pair]
	ref := map[uint32]uint32{}
	for step := 0; step < 20000; step++ {
		k := uint32(1 + rng.Intn(300))
		i := tab.Find(k)
		v, held := ref[k]
		if (i >= 0) != held || (held && tab.Entries()[i].Val.a != v) {
			t.Fatalf("step %d: key %d at %d, reference %d/%v", step, k, i, v, held)
		}
		switch {
		case !held:
			tab.Put(k, pair{a: uint32(step)})
			ref[k] = uint32(step)
		case rng.Intn(3) == 0:
			tab.Entries()[i].Val.a = uint32(step)
			ref[k] = uint32(step)
		default:
			tab.Remove(i)
			delete(ref, k)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, reference %d", step, tab.Len(), len(ref))
		}
	}
	n := 0
	for _, e := range tab.Entries() {
		if e.Key != 0 {
			n++
			if ref[e.Key] != e.Val.a {
				t.Fatalf("walk: key %d holds %d, reference %d", e.Key, e.Val.a, ref[e.Key])
			}
		}
	}
	if n != len(ref) {
		t.Fatalf("walk found %d keys, reference %d", n, len(ref))
	}
}

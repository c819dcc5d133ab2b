// Package termtab holds the two structures that let an index key on
// integers instead of strings: Dict, a grow-only dictionary from terms to
// ids, and Table, a small open-addressed table from id to a value. GI2's
// per-cell inverted index and gridt's per-cell H2 are both Tables over
// the ids of one Dict, which a coordinator shares between its gridt and
// every GI2 of its own process.
//
// A Table is not safe for concurrent use: the owner supplies the locks.
// A Dict is: looking a term up takes no lock, and only an addition takes
// the dictionary's own.
package termtab

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Dict assigns ids to terms: 1 to the first term it is given, 2 to the
// next, and so on. An id is never reused or taken back, so a Dict holds
// one string per distinct term it has ever been given. The zero value is
// an empty dictionary.
//
// Every method is safe for concurrent use. Find and Term take no lock:
// an id is published only once its term is in place, and a reader that
// found it sees it from then on. ID takes no lock either for a term the
// dictionary holds; it locks the dictionary only to add one, so callers
// that race to add the same term all get the one id it was given.
type Dict struct {
	cur atomic.Pointer[dictState]
	// mu serialises additions and Footprint; n and seed change under it.
	mu   sync.Mutex
	n    uint32 // ids assigned
	seed maphash.Seed
}

// dictState is one array generation. ID fills positions no reader can
// reach yet, and replaces the whole state when it grows, so a reader
// holding an older state sees every id published before it was replaced.
//
// The table is split into groups of eight slots. A group's control word
// holds one byte per slot: 0 for an empty slot, else 0x80 or'ed with
// seven bits of the term's hash, so one load tells a lookup which of the
// group's slots can hold its term. Groups are probed linearly from the
// one the hash picks, and the table is at most three quarters full.
type dictState struct {
	ctrl  []atomic.Uint64
	ids   []atomic.Uint32 // ids[8*g+j] is the id in slot j of group g
	terms []string        // terms[id]
}

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// ID returns t's id, assigning the next one if t is new.
func (d *Dict) ID(t string) uint32 {
	if id := d.Find(t); id != 0 {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id := d.Find(t); id != 0 {
		return id // added while this call waited for the lock
	}
	st := d.cur.Load()
	if st == nil || int(d.n+1) >= len(st.terms) {
		st = d.grow(st)
	}
	d.n++
	st.terms[d.n] = t
	st.put(maphash.String(d.seed, t), d.n)
	return d.n
}

// grow publishes a state twice the size of old (or the first one),
// holding every id assigned so far. Caller holds d.mu.
func (d *Dict) grow(old *dictState) *dictState {
	groups := 1
	if old == nil {
		d.seed = maphash.MakeSeed()
	} else {
		groups = 2 * len(old.ctrl)
	}
	st := &dictState{
		ctrl:  make([]atomic.Uint64, groups),
		ids:   make([]atomic.Uint32, 8*groups),
		terms: make([]string, 6*groups), // three quarters of the slots
	}
	if old != nil {
		copy(st.terms, old.terms[:d.n+1])
	}
	for id := uint32(1); id <= d.n; id++ {
		st.put(maphash.String(d.seed, st.terms[id]), id)
	}
	d.cur.Store(st)
	return st
}

// put stores id in the first empty slot of its probe sequence: the id
// first, then the control byte that makes it visible.
func (st *dictState) put(h uint64, id uint32) {
	mask := uint64(len(st.ctrl) - 1)
	for g := h & mask; ; g = (g + 1) & mask {
		c := st.ctrl[g].Load()
		if free := (c - lsb) &^ c & msb; free != 0 {
			j := uint64(bits.TrailingZeros64(free) / 8)
			st.ids[8*g+j].Store(id)
			st.ctrl[g].Store(c | (h>>57|0x80)<<(8*j))
			return
		}
	}
}

// Find returns t's id, or 0 if the dictionary does not hold t.
func (d *Dict) Find(t string) uint32 {
	st := d.cur.Load()
	if st == nil {
		return 0
	}
	h := maphash.String(d.seed, t)
	tag := (h>>57 | 0x80) * lsb
	mask := uint64(len(st.ctrl) - 1)
	for g := h & mask; ; g = (g + 1) & mask {
		c := st.ctrl[g].Load()
		// Bytes equal to the tag, give or take a false hit the string
		// comparison rejects.
		x := c ^ tag
		for m := (x - lsb) &^ x & msb; m != 0; m &= m - 1 {
			if id := st.ids[8*g+uint64(bits.TrailingZeros64(m)/8)].Load(); st.terms[id] == t {
				return id
			}
		}
		if (c-lsb)&^c&msb != 0 {
			return 0 // an empty slot ends the probe sequence
		}
	}
}

// Term returns the term with the given id, which must be one that ID has
// returned.
func (d *Dict) Term(id uint32) string { return d.cur.Load().terms[id] }

// Footprint is the dictionary's resident memory in bytes: the slots, the
// id-to-term column and the terms' bytes, each string counted once.
func (d *Dict) Footprint() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.cur.Load()
	if st == nil {
		return 0
	}
	b := int64(len(st.ctrl))*8 + int64(len(st.ids))*4 + int64(len(st.terms))*int64(unsafe.Sizeof(""))
	for _, t := range st.terms[:d.n+1] {
		b += int64(len(t))
	}
	return b
}

// Table maps nonzero uint32 keys to values of type V. It is meant for a
// value of two 32-bit words, which makes an entry 12 bytes.
//
// Layout: linear probing in a power-of-two array at most three quarters
// full, indexed by the top bits of key*hashMul. Removal shifts later
// entries back, so there are no tombstones, and the array is released
// with the last key, so an empty Table costs only its header. The zero
// value is an empty table.
type Table[V any] struct {
	tab   []Entry[V]
	shift uint8
	n     int32
}

// Entry is one position of a Table; Key 0 marks an empty one.
type Entry[V any] struct {
	Key uint32
	Val V
}

const hashMul = 0x9E3779B1

// Len returns the number of keys held.
func (t *Table[V]) Len() int { return int(t.n) }

// Entries returns every position of the table, empty ones included, for
// a walk or for access by a position Find returned. The caller may change
// an entry's Val in place, but not its Key; Put, Remove and Clear
// invalidate the slice.
func (t *Table[V]) Entries() []Entry[V] { return t.tab }

// Find returns the position of key's entry, or -1. Key 0 is never held.
func (t *Table[V]) Find(key uint32) int {
	if t.n == 0 || key == 0 {
		return -1
	}
	mask := uint32(len(t.tab) - 1)
	for i := (key * hashMul) >> t.shift; ; i = (i + 1) & mask {
		switch t.tab[i].Key {
		case key:
			return int(i)
		case 0:
			return -1
		}
	}
}

// Put adds an entry for a nonzero key the table does not hold, growing
// the table first if the entry would fill more than three quarters of it.
func (t *Table[V]) Put(key uint32, v V) {
	if int(t.n+1)*4 > len(t.tab)*3 {
		old := t.tab
		size := max(4, 2*len(old))
		t.tab = make([]Entry[V], size)
		t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
		t.n = 0
		for _, e := range old {
			if e.Key != 0 {
				t.Put(e.Key, e.Val)
			}
		}
	}
	mask := uint32(len(t.tab) - 1)
	i := (key * hashMul) >> t.shift
	for t.tab[i].Key != 0 {
		i = (i + 1) & mask
	}
	t.tab[i] = Entry[V]{Key: key, Val: v}
	t.n++
}

// Remove empties position i and closes the gap: every later entry of the
// same run of occupied positions whose probe sequence passes through the
// gap moves back into it. Removing the last key releases the array.
func (t *Table[V]) Remove(i int) {
	if t.n--; t.n == 0 {
		t.tab = nil
		return
	}
	mask := uint32(len(t.tab) - 1)
	gap := uint32(i)
	for j := (gap + 1) & mask; t.tab[j].Key != 0; j = (j + 1) & mask {
		// The entry at j may move to the gap only if the gap lies on its
		// probe sequence, that is between its home and j.
		if home := (t.tab[j].Key * hashMul) >> t.shift; (j-home)&mask >= (j-gap)&mask {
			t.tab[gap] = t.tab[j]
			gap = j
		}
	}
	t.tab[gap] = Entry[V]{}
}

// Clear removes every key and releases the array.
func (t *Table[V]) Clear() { t.tab, t.n = nil, 0 }

// Footprint is the table's array in bytes, by capacity; the header is
// the owner's to count.
func (t *Table[V]) Footprint() int64 {
	return int64(cap(t.tab)) * int64(unsafe.Sizeof(Entry[V]{}))
}

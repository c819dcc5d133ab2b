// Package dedup provides the bounded duplicate-elimination window the
// merger role uses (§III-B: a query held by several workers produces
// the same match more than once). The mergers are internal/core's
// dedup shards, one window each.
package dedup

// Window remembers the most recent `capacity` keys in FIFO order: a key
// is new the first time it is observed and a duplicate while it remains
// within the window. It never reports a new key as a duplicate or a
// remembered key as new. Not safe for concurrent use: each merger owns
// its own window and serialises its users with a lock.
//
// Layout: the keys sit in a ring in arrival order, and one
// open-addressed table (linear probing, a power-of-two size at most a
// quarter full, so most probe sequences are one word long) finds a
// key's ring position. A table word is the upper half of the key's hash
// beside the ring position, so a probe compares words and reads the ring
// only to confirm a hash that is equal: the table, the one part read at
// random, stays at eight bytes a word whatever the key size. Eviction
// deletes by backward shift, so there are no tombstones and a probe
// sequence always ends at the first empty word. Neither part holds a
// pointer for the collector to scan.
type Window struct {
	// tab[i] is hash>>32<<32 | ring position + 1, or 0 when empty; a
	// key's probe sequence starts at the top bits of its hash.
	tab   []uint64
	shift uint // 32 - log2(len(tab))
	// ring[:n] are the remembered keys; next is the position the next
	// new key takes, which once the ring is full is the oldest key's.
	ring [][2]uint64
	n    int
	next int
}

// NewWindow returns a window bounded to capacity keys (minimum 1).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	size, shift := 4, uint(30)
	for size < 4*capacity {
		size, shift = size<<1, shift-1
	}
	return &Window{
		tab:   make([]uint64, size),
		shift: shift,
		ring:  make([][2]uint64, capacity),
	}
}

// hash32 is the upper half of the key's 64-bit hash.
func hash32(key [2]uint64) uint32 {
	return uint32(((key[0]*0x9E3779B97F4A7C15 ^ key[1]) * 0xBF58476D1CE4E5B9) >> 32)
}

// Observe records the key and reports whether it is new (true) or a
// duplicate already inside the window (false). Once the window is
// full, each new key evicts the oldest remembered one.
func (w *Window) Observe(key [2]uint64) bool {
	h := hash32(key)
	mask := uint32(len(w.tab) - 1)
	for i := h >> w.shift; w.tab[i] != 0; i = (i + 1) & mask {
		if uint32(w.tab[i]>>32) == h && w.ring[uint32(w.tab[i])-1] == key {
			return false
		}
	}
	if w.n == len(w.ring) {
		w.evict()
	} else {
		w.n++
	}
	// The eviction may have opened a gap earlier on the key's probe
	// sequence than the empty word the search above stopped at.
	i := h >> w.shift
	for w.tab[i] != 0 {
		i = (i + 1) & mask
	}
	w.tab[i] = uint64(h)<<32 | uint64(w.next+1)
	w.ring[w.next] = key
	if w.next++; w.next == len(w.ring) {
		w.next = 0
	}
	return true
}

// evict takes the oldest key, at ring position next, out of the table
// and closes the gap: every later word of the same run of occupied
// words whose probe sequence passes through the gap moves back into it,
// so no lookup ever stops short at a hole.
func (w *Window) evict() {
	h := hash32(w.ring[w.next])
	word := uint64(h)<<32 | uint64(w.next+1)
	mask := uint32(len(w.tab) - 1)
	gap := h >> w.shift
	for w.tab[gap] != word {
		gap = (gap + 1) & mask
	}
	for j := (gap + 1) & mask; w.tab[j] != 0; j = (j + 1) & mask {
		// The word at j may move to the gap only if the gap lies on its
		// probe sequence, that is between its home and j.
		if home := uint32(w.tab[j]>>32) >> w.shift; (j-home)&mask >= (j-gap)&mask {
			w.tab[gap] = w.tab[j]
			gap = j
		}
	}
	w.tab[gap] = 0
}

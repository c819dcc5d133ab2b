package window

import "slices"

// Ranked pairs a window entry with its score for one subscription.
type Ranked struct {
	E Entry
	S Score
}

// better reports whether r ranks strictly above o.
func (r Ranked) better(o Ranked) bool { return r.S.Better(o.S, r.E.MsgID, o.E.MsgID) }

// dominates reports whether r rules o out of every later top-k: r ranks
// above o and leaves the window no earlier, so o never outranks r while
// o is live.
func (r Ranked) dominates(o Ranked) bool { return r.better(o) && !r.E.At.Before(o.E.At) }

// Skyband is one subscription's k-skyband, best first: the entries that
// fewer than k entries seen so far dominate. Its first k entries are the
// subscription's top-k. A dominance count only grows: a dominator that
// later expires took the dominated entry with it (it is no older), and
// one that moves to another worker still exists there, where the global
// reconciler sees it.
type Skyband struct {
	k  int
	es []banded
}

type banded struct {
	Ranked
	// dom counts the dominators seen; the entry leaves the band at k.
	dom int
	// in records that the entry was last reported inside the top-k.
	in bool
}

// NewSkyband returns an empty band for a top-k of k (>= 1).
func NewSkyband(k int) *Skyband {
	return &Skyband{k: max(k, 1)}
}

// Len returns the number of held entries.
func (b *Skyband) Len() int { return len(b.es) }

// Insert adds r unless it is already held or k held entries dominate it.
// With prune, r also counts against the held entries it dominates, and
// those reaching k dominators leave; only an entry that has never been
// offered to this band before may prune, or one object would count twice.
// moved receives every entry that entered (true) or left (false) the
// top-k.
func (b *Skyband) Insert(r Ranked, prune bool, moved func(Ranked, bool)) {
	pos, dom := len(b.es), 0
	for i := range b.es {
		h := &b.es[i]
		if h.E.MsgID == r.E.MsgID {
			return
		}
		if h.better(r) {
			if !h.E.At.Before(r.E.At) {
				dom++
			}
		} else if pos == len(b.es) {
			pos = i
		}
	}
	if dom >= b.k {
		return
	}
	b.es = slices.Insert(b.es, pos, banded{Ranked: r, dom: dom})
	if prune {
		// Only entries ranked below r can be dominated by it.
		b.removeFrom(pos+1, func(h *banded) bool {
			if r.dominates(h.Ranked) {
				h.dom++
			}
			return h.dom >= b.k
		}, moved)
	}
	b.sync(moved)
}

// RemoveIf drops every entry for which drop holds.
func (b *Skyband) RemoveIf(drop func(Entry) bool, moved func(Ranked, bool)) {
	b.removeFrom(0, func(h *banded) bool { return drop(h.E) }, moved)
	b.sync(moved)
}

// removeFrom drops the entries at or after index from for which drop
// holds, reporting the top-k members among them as left.
func (b *Skyband) removeFrom(from int, drop func(*banded) bool, moved func(Ranked, bool)) {
	kept := from
	for i := from; i < len(b.es); i++ {
		h := &b.es[i]
		if !drop(h) {
			b.es[kept] = *h
			kept++
			continue
		}
		if h.in {
			moved(h.Ranked, false)
		}
	}
	clear(b.es[kept:])
	b.es = b.es[:kept]
}

// sync reports the membership changes since the last report. An insert
// pushes at most one reported entry down to index k and a removal pulls
// entries up, so the first k+1 entries are all that can differ.
func (b *Skyband) sync(moved func(Ranked, bool)) {
	for j := 0; j < len(b.es) && j <= b.k; j++ {
		if h := &b.es[j]; h.in != (j < b.k) {
			h.in = j < b.k
			moved(h.Ranked, h.in)
		}
	}
}

// top returns the top-k entries, best first.
func (b *Skyband) top() []banded { return b.es[:min(len(b.es), b.k)] }

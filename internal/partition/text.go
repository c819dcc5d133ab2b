package partition

import (
	"math/bits"
	"sort"
	"sync"

	"ps2stream/internal/model"
	"ps2stream/internal/textutil"
)

// TextAssignment routes by the textual content of tuples. The lexicon is
// partitioned into m subsets T_1..T_m via the owner map (the dispatcher's
// H1); terms outside the build-time lexicon fall back to a deterministic
// hash. A second map H2 tracks the registration keys of live queries so
// objects are only sent to workers that can actually match them, and
// objects containing no active key are discarded (§IV-C).
type TextAssignment struct {
	name  string
	m     int
	owner map[string]int
	stats *textutil.Stats

	// h2 tracks active registration keys (term → live query count). The
	// dispatcher writes it; h2mu lets Footprint read it from other
	// goroutines.
	h2mu sync.RWMutex
	h2   map[string]int
}

// NewTextAssignment builds an assignment from an explicit term→worker map.
// stats supplies term frequencies for least-frequent-keyword selection and
// must match the statistics used by the workers' GI2 indexes.
func NewTextAssignment(name string, m int, owner map[string]int, stats *textutil.Stats) *TextAssignment {
	a := &TextAssignment{
		name:  name,
		m:     m,
		owner: owner,
		stats: stats,
		h2:    make(map[string]int),
	}
	return a
}

// Owner returns the worker owning term (H1 lookup with hash fallback).
func (a *TextAssignment) Owner(term string) int {
	if w, ok := a.owner[term]; ok {
		return w
	}
	return hashTerm(term, a.m)
}

// RouteObject implements Assignment.
func (a *TextAssignment) RouteObject(o *model.Object) []int {
	var mask uint64
	a.h2mu.RLock()
	for _, t := range o.Terms {
		if a.h2[t] > 0 {
			mask |= 1 << uint(a.Owner(t))
		}
	}
	a.h2mu.RUnlock()
	return workersFromMask(mask, nil)
}

// RouteQuery implements Assignment.
func (a *TextAssignment) RouteQuery(q *model.Query, insert bool) []int {
	keys := a.stats.RegistrationKeys(q.Expr.Conj)
	var mask uint64
	a.h2mu.Lock()
	for _, k := range keys {
		mask |= 1 << uint(a.Owner(k))
		if insert {
			a.h2[k]++
		} else if a.h2[k] > 0 {
			a.h2[k]--
			if a.h2[k] == 0 {
				delete(a.h2, k)
			}
		}
	}
	a.h2mu.Unlock()
	return workersFromMask(mask, nil)
}

// NumWorkers implements Assignment.
func (a *TextAssignment) NumWorkers() int { return a.m }

// Name implements Assignment.
func (a *TextAssignment) Name() string { return a.name }

// Footprint implements Assignment.
func (a *TextAssignment) Footprint() int64 {
	var b int64
	for t := range a.owner {
		b += int64(len(t)) + 24
	}
	a.h2mu.RLock()
	b += int64(len(a.h2)) * 24
	a.h2mu.RUnlock()
	return b
}

// activeKeyCount reports live H2 keys (tests).
func (a *TextAssignment) activeKeyCount() int {
	a.h2mu.RLock()
	defer a.h2mu.RUnlock()
	return len(a.h2)
}

// activeKeyRefs returns the live refcount of a registration key (tests).
func (a *TextAssignment) activeKeyRefs(k string) int {
	a.h2mu.RLock()
	defer a.h2mu.RUnlock()
	return a.h2[k]
}

// workersFromMask expands a worker bitmask into a slice (ascending ids).
func workersFromMask(mask uint64, buf []int) []int {
	out := buf[:0]
	for mask != 0 {
		w := bits.TrailingZeros64(mask)
		out = append(out, w)
		mask &^= 1 << uint(w)
	}
	return out
}

// lexicon returns the union of object terms and query terms, sorted for
// determinism.
func lexicon(s *Sample) []string {
	set := make(map[string]struct{})
	for _, t := range s.Stats.Terms() {
		set[t] = struct{}{}
	}
	for _, q := range s.Queries {
		for _, t := range q.Expr.Terms() {
			set[t] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// coocIndex holds term co-occurrence counts over the sampled objects,
// restricted to the maxVocab most frequent terms to bound memory.
type coocIndex struct {
	counts map[string]map[string]int
	inTop  map[string]bool
}

const (
	coocMaxVocab    = 8192
	coocMaxObjTerms = 16
)

func buildCooc(s *Sample) *coocIndex {
	top := s.Stats.TopTerms(coocMaxVocab)
	inTop := make(map[string]bool, len(top))
	for _, t := range top {
		inTop[t] = true
	}
	c := &coocIndex{counts: make(map[string]map[string]int), inTop: inTop}
	for _, o := range s.Objects {
		terms := o.Terms
		if len(terms) > coocMaxObjTerms {
			terms = terms[:coocMaxObjTerms]
		}
		for i, a := range terms {
			if !inTop[a] {
				continue
			}
			for j, b := range terms {
				if i == j || !inTop[b] {
					continue
				}
				mm := c.counts[a]
				if mm == nil {
					mm = make(map[string]int)
					c.counts[a] = mm
				}
				mm[b]++
			}
		}
	}
	return c
}

// affinity returns how strongly term t co-occurs with each worker's
// current term set, as per-worker scores.
func (c *coocIndex) affinity(t string, owner map[string]int, m int) []float64 {
	scores := make([]float64, m)
	for u, n := range c.counts[t] {
		if w, ok := owner[u]; ok {
			scores[w] += float64(n)
		}
	}
	return scores
}

// MetricBuilder implements the metric-based text partitioning of
// S3-TM [28]: terms are placed in descending frequency order, each going
// to the partition maximising a co-occurrence affinity metric discounted
// by partition fullness, so frequently co-occurring terms land together
// and objects are duplicated to fewer workers.
type MetricBuilder struct{}

// Name implements Builder.
func (MetricBuilder) Name() string { return "metric" }

// Build implements Builder.
func (MetricBuilder) Build(s *Sample, m int) (Assignment, error) {
	if err := validateWorkers(m); err != nil {
		return nil, err
	}
	cooc := buildCooc(s)
	terms := lexicon(s)
	sort.Slice(terms, func(i, j int) bool {
		ci, cj := s.Stats.Count(terms[i]), s.Stats.Count(terms[j])
		if ci != cj {
			return ci > cj
		}
		return terms[i] < terms[j]
	})
	var total float64
	for _, t := range terms {
		total += float64(s.Stats.Count(t)) + 1
	}
	maxPart := total / float64(m) * 1.2
	owner := make(map[string]int, len(terms))
	partW := make([]float64, m)
	for _, t := range terms {
		w := float64(s.Stats.Count(t)) + 1
		scores := cooc.affinity(t, owner, m)
		best, bestScore := -1, 0.0
		for p := 0; p < m; p++ {
			if partW[p]+w > maxPart {
				continue
			}
			// The metric: affinity discounted by relative fullness.
			score := scores[p] / (1 + partW[p]/(total/float64(m)))
			if score > bestScore {
				best, bestScore = p, score
			}
		}
		if best == -1 {
			// No positive affinity (or all affine partitions full): seed
			// the lightest partition so every worker receives terms.
			best = 0
			for p := 1; p < m; p++ {
				if partW[p] < partW[best] {
					best = p
				}
			}
		}
		owner[t] = best
		partW[best] += w
	}
	return NewTextAssignment("metric", m, owner, s.Stats), nil
}

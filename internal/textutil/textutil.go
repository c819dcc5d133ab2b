// Package textutil provides the text-processing substrate of PS2Stream:
// tokenisation, term-frequency statistics (used to pick the least-frequent
// keyword in GI2 and gridt, §IV-C/§IV-D), cosine similarity between term
// distributions (simt in Algorithm 1), and a Zipf sampler used by the
// workload generator to reproduce the power-law keyword distribution of
// tweets.
package textutil

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// Tokenize splits free text into lower-cased, de-duplicated terms.
// Separators are any non-letter/non-digit runes; order of first occurrence
// is preserved.
func Tokenize(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	if len(fields) > scanDedupMax {
		return dedupLong(fields)
	}
	// A message has a handful of terms: scanning the ones already kept is
	// cheaper than building a set, and allocates nothing.
	out := fields[:0]
next:
	for _, f := range fields {
		for _, kept := range out {
			if kept == f {
				continue next
			}
		}
		out = append(out, f)
	}
	return out
}

// scanDedupMax is the longest token list Tokenize de-duplicates by
// scanning, which is quadratic; longer texts go through a set so that no
// input costs more than linear time.
const scanDedupMax = 64

func dedupLong(fields []string) []string {
	seen := make(map[string]struct{}, len(fields))
	out := fields[:0]
	for _, f := range fields {
		if _, dup := seen[f]; !dup {
			seen[f] = struct{}{}
			out = append(out, f)
		}
	}
	return out
}

// Stats accumulates term frequencies over a corpus. The zero value is ready
// to use. Stats is not safe for concurrent mutation; components keep their
// own copy or guard it externally.
type Stats struct {
	counts map[string]int
	total  int
}

// NewStats returns an empty Stats.
func NewStats() *Stats {
	return &Stats{counts: make(map[string]int)}
}

// Add records one occurrence of each given term.
func (s *Stats) Add(terms ...string) {
	if s.counts == nil {
		s.counts = make(map[string]int)
	}
	for _, t := range terms {
		s.counts[t]++
		s.total++
	}
}

// AddWeighted records w occurrences of term.
func (s *Stats) AddWeighted(term string, w int) {
	if s.counts == nil {
		s.counts = make(map[string]int)
	}
	s.counts[term] += w
	s.total += w
}

// Count returns the recorded occurrences of term.
func (s *Stats) Count(term string) int { return s.counts[term] }

// Total returns the total number of recorded occurrences.
func (s *Stats) Total() int { return s.total }

// DistinctTerms returns the number of distinct terms recorded.
func (s *Stats) DistinctTerms() int { return len(s.counts) }

// Freq returns the relative frequency of term in [0,1]; 0 when nothing has
// been recorded.
func (s *Stats) Freq(term string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.counts[term]) / float64(s.total)
}

// LeastFrequent returns the term with the smallest recorded count among the
// given terms, breaking ties lexicographically so the choice is
// deterministic across dispatchers and workers. Terms never recorded count
// as 0 and therefore win. An empty input returns "".
func (s *Stats) LeastFrequent(terms []string) string {
	best := ""
	bestCount := math.MaxInt
	for _, t := range terms {
		c := s.counts[t]
		if c < bestCount || (c == bestCount && t < best) {
			best, bestCount = t, c
		}
	}
	return best
}

// RegistrationKeys returns the distinct least-frequent terms, one per
// conjunction, under which a DNF boolean expression is registered in
// inverted indexes (§IV-C, §IV-D: "it is appended to the inverted list of
// the least frequent keyword"; for OR expressions, "the inverted lists of
// the least frequent keywords in each conjunctive norm form").
func (s *Stats) RegistrationKeys(conjunctions [][]string) []string {
	keys := make([]string, 0, len(conjunctions))
	for _, conj := range conjunctions {
		k := s.LeastFrequent(conj)
		if k == "" {
			continue
		}
		dup := false
		for _, e := range keys {
			if e == k {
				dup = true
				break
			}
		}
		if !dup {
			keys = append(keys, k)
		}
	}
	return keys
}

// TopTerms returns the n most frequent terms in descending count order
// (ties broken lexicographically). n larger than the vocabulary returns all
// terms.
func (s *Stats) TopTerms(n int) []string {
	terms := make([]string, 0, len(s.counts))
	for t := range s.counts {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		ci, cj := s.counts[terms[i]], s.counts[terms[j]]
		if ci != cj {
			return ci > cj
		}
		return terms[i] < terms[j]
	})
	if n < len(terms) {
		terms = terms[:n]
	}
	return terms
}

// Terms returns all recorded terms in unspecified order.
func (s *Stats) Terms() []string {
	out := make([]string, 0, len(s.counts))
	for t := range s.counts {
		out = append(out, t)
	}
	return out
}

// Clone returns an independent copy of the statistics.
func (s *Stats) Clone() *Stats {
	c := &Stats{counts: make(map[string]int, len(s.counts)), total: s.total}
	for k, v := range s.counts {
		c.counts[k] = v
	}
	return c
}

// Merge adds all counts from o into s.
func (s *Stats) Merge(o *Stats) {
	if s.counts == nil {
		s.counts = make(map[string]int, len(o.counts))
	}
	for k, v := range o.counts {
		s.counts[k] += v
	}
	s.total += o.total
}

// Vector returns the counts as a dense-ish map for similarity computation.
func (s *Stats) Vector() map[string]int { return s.counts }

// Cosine computes the cosine similarity of two term-count vectors. It is
// the simt(O_n, Q_n) measure of Algorithm 1 ("We use cosine similarity in
// our algorithm"). Empty vectors yield 0.
func Cosine(a, b map[string]int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Iterate over the smaller map for the dot product.
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot float64
	for t, ca := range a {
		if cb, ok := b[t]; ok {
			dot += float64(ca) * float64(cb)
		}
	}
	if dot == 0 {
		return 0
	}
	var na, nb float64
	for _, c := range a {
		na += float64(c) * float64(c)
	}
	for _, c := range b {
		nb += float64(c) * float64(c)
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// CosineStats is a convenience wrapper computing Cosine over two Stats.
func CosineStats(a, b *Stats) float64 {
	if a == nil || b == nil {
		return 0
	}
	return Cosine(a.counts, b.counts)
}

// Zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s,
// the standard model for term frequency in social-media text. It uses the
// inverse-CDF method over a precomputed table, so draws are deterministic
// given the caller's random source.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf distribution over n ranks with exponent s (> 0).
// n must be at least 1.
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Rank maps a uniform random value u in [0,1) to a rank in [0, n).
func (z *Zipf) Rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Package textutil provides the text-processing substrate of PS2Stream:
// tokenisation, term-frequency statistics (used to pick the least-frequent
// keyword a query is registered under, §IV-C/§IV-D), cosine similarity
// between term distributions (simt in Algorithm 1), and a Zipf sampler
// used by the workload generator to reproduce the power-law keyword
// distribution of tweets.
package textutil

import (
	"math"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Tokenize splits free text into lower-cased, de-duplicated terms.
// Separators are any non-letter/non-digit runes; order of first occurrence
// is preserved.
//
// ASCII text — every message of the evaluated workloads — is tokenised in
// one pass over its bytes (Scanner): a token with no upper-case letter is
// a substring of s, the ones with an upper-case letter are lowered into
// one shared buffer, and the result is copied out at its exact size, so a
// lower-case text costs one allocation and any other ASCII text two. The
// first byte at or above utf8.RuneSelf hands the whole text to
// tokenizeUnicode; both produce what ToLower followed by FieldsFunc does.
func Tokenize(s string) []string {
	var (
		scratch [32]string // distinct terms of a message-sized text
		kept    = scratch[:0]
		seen    map[string]struct{}
		lowered []byte
		sc      = Scanner{text: s}
	)
	for {
		tok, upper, ok := sc.Next()
		if !ok {
			break
		}
		if upper {
			if lowered == nil {
				// The buffer is wasted if the rune path takes over
				// later: look ahead once before paying for it.
				rest := s[sc.pos:]
				if !isASCII(rest) {
					return tokenizeUnicode(s)
				}
				lowered = make([]byte, 0, len(tok)+len(rest))
			}
			// lowered was sized for every byte left, so it never moves
			// and the terms cut from it stay put.
			at := len(lowered)
			lowered = AppendLower(lowered, tok)
			tok = unsafe.String(&lowered[at], len(tok))
		}
		kept, seen = keepTerm(kept, seen, tok)
	}
	if sc.nonASCII {
		return tokenizeUnicode(s)
	}
	out := make([]string, len(kept))
	copy(out, kept)
	return out
}

// Scanner reads the tokens of an ASCII text: its maximal runs of ASCII
// letters and digits, everything else being a separator. It is the one
// ASCII lexer: Tokenize runs it, and so does any caller that wants each
// token as something other than a kept string (the dispatcher looks each
// one up in its term dictionary), so that both split and lower a text
// alike. The zero value scans the empty text.
type Scanner struct {
	text     string
	pos      int  // the next byte to read
	nonASCII bool // the scan stopped at a byte at or above utf8.RuneSelf
}

// NewScanner returns a Scanner over text.
func NewScanner(text string) Scanner { return Scanner{text: text} }

// Next returns the next token as a substring of the text, and whether it
// holds an upper-case letter, in which case the term is AppendLower of
// it. ok is false at the end of the text and at its first byte at or
// above utf8.RuneSelf; NonASCII tells the two apart.
func (sc *Scanner) Next() (tok string, upper, ok bool) {
	s, i := sc.text, sc.pos
	for i < len(s) && byteClass[s[i]] == sepByte {
		i++
	}
	start := i
	for ; i < len(s); i++ {
		switch byteClass[s[i]] {
		case upperByte:
			upper = true
		case sepByte:
			sc.pos = i + 1
			return s[start:i], upper, true
		case highByte:
			sc.pos, sc.nonASCII = len(s), true
			return "", false, false
		}
	}
	sc.pos = len(s)
	return s[start:], upper, start < len(s)
}

// The classes of byteClass.
const (
	sepByte   = iota
	lowerByte // a lower-case ASCII letter or a digit
	upperByte
	highByte // a byte at or above utf8.RuneSelf
)

// byteClass classifies every byte for Scanner.
var byteClass = func() (c [256]uint8) {
	for b := range c {
		switch {
		case 'a' <= b && b <= 'z' || '0' <= b && b <= '9':
			c[b] = lowerByte
		case 'A' <= b && b <= 'Z':
			c[b] = upperByte
		case b >= utf8.RuneSelf:
			c[b] = highByte
		}
	}
	return c
}()

// NonASCII reports whether the scan stopped at a byte at or above
// utf8.RuneSelf. Such a text is Tokenize's to split as a whole: its
// tokens so far do not count.
func (sc *Scanner) NonASCII() bool { return sc.nonASCII }

// AppendLower appends the ASCII token tok to dst with its upper-case
// letters lowered.
func AppendLower(dst []byte, tok string) []byte {
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// tokenizeUnicode is Tokenize for text with non-ASCII bytes: the
// standard library's rune-decoding ToLower and FieldsFunc (invalid UTF-8
// becomes U+FFFD, a separator), de-duplicated in place.
func tokenizeUnicode(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	var seen map[string]struct{}
	for _, f := range fields {
		out, seen = keepTerm(out, seen, f)
	}
	return out
}

// scanDedupMax is the longest term list Tokenize de-duplicates by
// scanning, which is quadratic; longer texts go through a set so that no
// input costs more than linear time.
const scanDedupMax = 64

// keepTerm appends term to kept unless it is already there. A message has
// a handful of terms: scanning the ones already kept is cheaper than
// building a set, and allocates nothing. seen is nil until kept outgrows
// scanDedupMax and mirrors kept from then on.
func keepTerm(kept []string, seen map[string]struct{}, term string) ([]string, map[string]struct{}) {
	if seen != nil {
		if _, dup := seen[term]; dup {
			return kept, seen
		}
		seen[term] = struct{}{}
		return append(kept, term), seen
	}
	for _, k := range kept {
		if k == term {
			return kept, seen
		}
	}
	if len(kept) == scanDedupMax {
		seen = make(map[string]struct{}, 2*scanDedupMax)
		for _, k := range kept {
			seen[k] = struct{}{}
		}
		seen[term] = struct{}{}
	}
	return append(kept, term), seen
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

// LeastFrequent returns the term with the smallest recorded count among the
// given terms, breaking ties lexicographically so the choice is
// deterministic across the dispatcher and workers. Terms never recorded count
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
		if k := s.LeastFrequent(conj); k != "" && !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// KeyFirst returns conj with each conjunction's least frequent term
// first, so that FirstTerms reads the keys RegistrationKeys picks. conj
// itself is never changed: copied reports that the result is a copy,
// made because some conjunction needed reordering.
func (s *Stats) KeyFirst(conj [][]string) (out [][]string, copied bool) {
	out = conj
	for i, c := range conj {
		j := slices.Index(c, s.LeastFrequent(c)) // -1 for an empty conjunction
		if j <= 0 {
			continue
		}
		if !copied {
			out, copied = slices.Clone(conj), true
		}
		out[i] = slices.Concat(c[j:j+1], c[:j], c[j+1:])
	}
	return out, copied
}

// FirstTerms appends the distinct non-empty first terms of the
// conjunctions to dst: the keys of an expression KeyFirst ordered.
func FirstTerms(dst []string, conj [][]string) []string {
	for _, c := range conj {
		if len(c) > 0 && c[0] != "" && !slices.Contains(dst, c[0]) {
			dst = append(dst, c[0])
		}
	}
	return dst
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

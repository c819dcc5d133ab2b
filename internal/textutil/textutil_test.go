package textutil

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Kobe has retired", []string{"kobe", "has", "retired"}},
		{"I like Kobe more than Lebron!", []string{"i", "like", "kobe", "more", "than", "lebron"}},
		{"dup dup DUP", []string{"dup"}},
		{"", nil},
		{"   ", nil},
		{"a,b;c.d", []string{"a", "b", "c", "d"}},
		{"café olé", []string{"café", "olé"}},
		{"year2016 #tag", []string{"year2016", "tag"}},
	}
	for _, tt := range tests {
		got := Tokenize(tt.in)
		if len(got) == 0 && len(tt.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestStatsBasics(t *testing.T) {
	s := NewStats()
	s.Add("a", "b", "a")
	s.AddWeighted("c", 5)
	if got := s.Count("a"); got != 2 {
		t.Errorf("Count(a) = %d, want 2", got)
	}
	if got := s.Total(); got != 8 {
		t.Errorf("Total = %d, want 8", got)
	}
	if got := s.DistinctTerms(); got != 3 {
		t.Errorf("DistinctTerms = %d, want 3", got)
	}
	if got := s.Freq("c"); math.Abs(got-5.0/8.0) > 1e-12 {
		t.Errorf("Freq(c) = %v, want 0.625", got)
	}
	if got := s.Freq("zzz"); got != 0 {
		t.Errorf("Freq(zzz) = %v, want 0", got)
	}
}

func TestStatsZeroValue(t *testing.T) {
	var s Stats
	s.Add("x")
	if s.Count("x") != 1 {
		t.Error("zero-value Stats should be usable")
	}
	var s2 Stats
	s2.AddWeighted("y", 3)
	if s2.Count("y") != 3 {
		t.Error("zero-value Stats AddWeighted failed")
	}
	var s3 Stats
	if s3.Freq("a") != 0 {
		t.Error("empty Stats Freq should be 0")
	}
}

func TestLeastFrequent(t *testing.T) {
	s := NewStats()
	s.AddWeighted("common", 100)
	s.AddWeighted("mid", 10)
	s.AddWeighted("rare", 1)
	tests := []struct {
		name  string
		terms []string
		want  string
	}{
		{"picks rare", []string{"common", "rare", "mid"}, "rare"},
		{"unseen wins", []string{"common", "never"}, "never"},
		{"tie lexicographic", []string{"zz", "aa"}, "aa"},
		{"single", []string{"common"}, "common"},
		{"empty", nil, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.LeastFrequent(tt.terms); got != tt.want {
				t.Errorf("LeastFrequent(%v) = %q, want %q", tt.terms, got, tt.want)
			}
		})
	}
}

func TestTopTerms(t *testing.T) {
	s := NewStats()
	s.AddWeighted("a", 1)
	s.AddWeighted("b", 3)
	s.AddWeighted("c", 2)
	s.AddWeighted("d", 3)
	got := s.TopTerms(3)
	want := []string{"b", "d", "c"} // ties broken lexicographically
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopTerms(3) = %v, want %v", got, want)
	}
	if got := s.TopTerms(100); len(got) != 4 {
		t.Errorf("TopTerms(100) returned %d terms, want 4", len(got))
	}
}

func TestCloneAndMerge(t *testing.T) {
	s := NewStats()
	s.Add("a", "b")
	c := s.Clone()
	c.Add("a")
	if s.Count("a") != 1 {
		t.Error("Clone is not independent")
	}
	s.Merge(c)
	if s.Count("a") != 3 || s.Count("b") != 2 {
		t.Errorf("Merge wrong: a=%d b=%d", s.Count("a"), s.Count("b"))
	}
	if s.Total() != 5 {
		t.Errorf("Merge total = %d, want 5", s.Total())
	}
}

func TestCosine(t *testing.T) {
	tests := []struct {
		name string
		a, b map[string]int
		want float64
	}{
		{"identical", map[string]int{"x": 2, "y": 1}, map[string]int{"x": 2, "y": 1}, 1},
		{"orthogonal", map[string]int{"x": 1}, map[string]int{"y": 1}, 0},
		{"empty a", nil, map[string]int{"x": 1}, 0},
		{"both empty", nil, nil, 0},
		{"scaled", map[string]int{"x": 1, "y": 1}, map[string]int{"x": 10, "y": 10}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Cosine(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Cosine = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCosinePartialOverlap(t *testing.T) {
	a := map[string]int{"x": 1, "y": 1}
	b := map[string]int{"x": 1, "z": 1}
	got := Cosine(a, b)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Cosine = %v, want 0.5", got)
	}
}

// Property: cosine is symmetric and within [0,1] for count vectors.
func TestCosineProperties(t *testing.T) {
	f := func(av, bv [4]uint8) bool {
		keys := []string{"a", "b", "c", "d"}
		a := map[string]int{}
		b := map[string]int{}
		for i, k := range keys {
			if av[i] > 0 {
				a[k] = int(av[i])
			}
			if bv[i] > 0 {
				b[k] = int(bv[i])
			}
		}
		s1 := Cosine(a, b)
		s2 := Cosine(b, a)
		return math.Abs(s1-s2) < 1e-12 && s1 >= 0 && s1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCosineStatsNil(t *testing.T) {
	if CosineStats(nil, NewStats()) != 0 {
		t.Error("CosineStats with nil should be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 1.0)
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng.Float64())]++
	}
	// Rank 0 should be roughly 2x rank 1 and far above rank 100.
	if counts[0] < counts[1] {
		t.Errorf("rank 0 (%d) should outdraw rank 1 (%d)", counts[0], counts[1])
	}
	if counts[0] < 10*counts[100] {
		t.Errorf("rank 0 (%d) should be >=10x rank 100 (%d)", counts[0], counts[100])
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("rank0/rank1 ratio = %v, want ~2 for s=1", ratio)
	}
}

func TestZipfEdge(t *testing.T) {
	z := NewZipf(0, 1)
	if z.N() != 1 {
		t.Errorf("NewZipf(0) should clamp to 1 rank, got %d", z.N())
	}
	if r := z.Rank(0.999999); r != 0 {
		t.Errorf("single-rank Zipf returned %d", r)
	}
	z2 := NewZipf(10, 1)
	if r := z2.Rank(0.9999999999); r != 9 {
		t.Errorf("Rank at CDF edge = %d, want 9", r)
	}
	if r := z2.Rank(0); r != 0 {
		t.Errorf("Rank(0) = %d, want 0", r)
	}
}

// tokenizeSet is Tokenize as it was when it de-duplicated through a set
// on every call; the scanning version must agree with it byte for byte.
func tokenizeSet(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	seen := make(map[string]struct{}, len(fields))
	out := fields[:0]
	for _, f := range fields {
		if _, dup := seen[f]; dup {
			continue
		}
		seen[f] = struct{}{}
		out = append(out, f)
	}
	return out
}

// tokenizeInputs are texts on which a tokenizer can plausibly go wrong:
// case folding that changes length or leaves ASCII, digits and letters
// outside ASCII, invalid UTF-8, and a text over the scanning limit. The
// fuzz target starts from them.
func tokenizeInputs() []string {
	long := strings.Repeat("alpha beta Gamma alpha ", scanDedupMax) // over the scanning limit
	for i := 0; i < 3*scanDedupMax; i++ {
		long += fmt.Sprintf(" w%d W%d", i, i/2)
	}
	return []string{
		"", " ", "\t\n", "!!! ??? ...",
		"kobe retired", "Kobe KOBE kobe kObE",
		"a a a b a b c", "x,,y;;x..z", "--lead trail--",
		"café CAFÉ olé Olé", "ÀÉÎ àéî", "straße STRASSE", "İstanbul istanbul",
		"日本語 テキスト 日本語", "naïve naïve", "Ünïcödé ünïcödé",
		"year2016 2016 YEAR2016 #tag @tag tag", "٣٤٥ ٣٤٥ x٣", "½ ② 2",
		"a b a", "emoji 😀 emoji 😀😀", "tab\tsep\nnew\rline tab",
		"\xff\xfeab", "aÉb Aéb", "K\u212Aelvin \u212A", "nul\x00byte A\x00a",
		long,
	}
}

// tokenizeReference is Tokenize as it stood before the one-pass version:
// lower the whole text, split it with FieldsFunc, de-duplicate. Queries
// are keyed by the terms it produced, so Tokenize must return the same
// slice for every input.
func tokenizeReference(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	if len(fields) > scanDedupMax {
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

// sameTerms reports the first difference between two term lists, "" when
// they are equal (a nil and an empty list are both "no terms", but
// neither implementation returns nil).
func sameTerms(got, want []string) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("nil-ness differs: got %v, want %v", got == nil, want == nil)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d terms %q, want %d %q", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("term %d is %q, want %q", i, got[i], want[i])
		}
	}
	return ""
}

func TestTokenizeMatchesSetDedup(t *testing.T) {
	for _, in := range tokenizeInputs() {
		if diff := sameTerms(Tokenize(in), tokenizeSet(in)); diff != "" {
			t.Errorf("Tokenize(%.40q) against set de-duplication: %s", in, diff)
		}
	}
}

func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, in := range tokenizeInputs() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if diff := sameTerms(Tokenize(in), tokenizeReference(in)); diff != "" {
			t.Errorf("Tokenize(%q): %s", in, diff)
		}
	})
}

// TestTokenizeMatchesReferenceRandom draws 100 000 short texts from an
// alphabet that mixes both ASCII cases, digits, separators, multi-byte
// letters whose lower case differs, and bytes that are not UTF-8, so that
// the one-pass path, the hand-over to the rune path and repeated terms
// all occur thousands of times.
func TestTokenizeMatchesReferenceRandom(t *testing.T) {
	alphabet := []string{
		"a", "b", "c", "A", "B", "C", "z", "Z", "0", "7", " ", " ", " ", ",", "-", "_", "\t", "\x00",
		"é", "É", "ß", "İ", "\u212A", "٣", "½", "日", "😀", "\xff", "\xc3", "\u0345",
	}
	rng := rand.New(rand.NewSource(2017))
	var b strings.Builder
	for n := 0; n < 100000; n++ {
		b.Reset()
		symbols := alphabet
		if n%2 == 0 {
			symbols = alphabet[:18] // ASCII only: stays on the one-pass path
		}
		for i, l := 0, rng.Intn(40); i < l; i++ {
			b.WriteString(symbols[rng.Intn(len(symbols))])
		}
		in := b.String()
		if diff := sameTerms(Tokenize(in), tokenizeReference(in)); diff != "" {
			t.Fatalf("Tokenize(%q): %s", in, diff)
		}
	}
}

// A lower-case ASCII text costs the returned slice and nothing else; an
// upper-case letter adds the one buffer its terms are lowered into, and
// text outside ASCII costs ToLower's and FieldsFunc's allocation.
func TestTokenizeAllocations(t *testing.T) {
	for _, tc := range []struct {
		in  string
		max float64
	}{
		{"all lower case already, nothing to fold, one slice to return", 1},
		{"Kobe has retired and kobe HAS a statue in Los Angeles", 2},
		{"Kobe a pris sa retraite, une statue à Los Angeles", 2},
	} {
		if n := testing.AllocsPerRun(200, func() { Tokenize(tc.in) }); n > tc.max {
			t.Errorf("Tokenize(%q) allocates %.0f times per call, want at most %.0f", tc.in, n, tc.max)
		}
	}
}

var tokenizeSink []string

// BenchmarkTokenize times the two shapes Publish sees: the benchmark's
// messages (5 to 8 lower-case ASCII terms joined by spaces) and the same
// messages with capitals and punctuation.
func BenchmarkTokenize(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	lower := make([]string, 1024)
	mixed := make([]string, len(lower))
	for i := range lower {
		terms := make([]string, 5+rng.Intn(4))
		for j := range terms {
			terms[j] = fmt.Sprintf("term%d", rng.Intn(5000))
		}
		lower[i] = strings.Join(terms, " ")
		terms[0] = strings.ToUpper(terms[0][:1]) + terms[0][1:]
		terms[len(terms)-1] = strings.ToUpper(terms[len(terms)-1])
		mixed[i] = strings.Join(terms, ", ") + "!"
	}
	for _, bc := range []struct {
		name string
		msgs []string
	}{{"lower", lower}, {"mixed", mixed}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tokenizeSink = Tokenize(bc.msgs[i%len(bc.msgs)])
			}
		})
	}
}

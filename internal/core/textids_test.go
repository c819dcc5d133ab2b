package core

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"ps2stream/internal/termtab"
	"ps2stream/internal/textutil"
)

// FuzzTextIDs: the dispatcher's one pass from a text to term ids
// (textIDs) returns what looking up Tokenize's terms does (termIDs), in
// order, whatever the text and whichever of its tokens the dictionary
// holds. keep picks those tokens: bit i mod 64 for the i-th term.
func FuzzTextIDs(f *testing.F) {
	var long []string
	for i := range 100 {
		long = append(long, "t"+strconv.Itoa(i))
	}
	for _, seed := range []struct {
		text string
		keep uint64
	}{
		{"Kobe has retired, kobe HAS a statue; year2016 2016", ^uint64(0)},
		{"Kobe has retired, kobe HAS a statue; year2016 2016", 0b1010},
		{strings.Repeat("Ab", 50) + " " + strings.Repeat("ab", 50) + " x", ^uint64(0)},
		{strings.Repeat("Ab", 50) + " " + strings.Repeat("AB", 50), 1},
		{" ,alpha beta  alpha,,beta gamma. ", 0b101},
		{"--ALPHA--alpha--", ^uint64(0)},
		{"", ^uint64(0)},
		{"   ", ^uint64(0)},
		{"café Olé alpha ALPHA", ^uint64(0)},
		{"alpha \xff beta", ^uint64(0)},
		{"Alpha beta İstanbul", ^uint64(0)},
		{strings.Join(long, " ") + " " + strings.Join(long, " "), ^uint64(0)},
		{strings.ToUpper(strings.Join(long, ",")), 0x5555555555555555},
		{"a b c d e f", 0},
	} {
		f.Add(seed.text, seed.keep)
	}
	f.Fuzz(func(t *testing.T, text string, keep uint64) {
		d := &dispatcher{s: &System{dict: &termtab.Dict{}}}
		d.s.dict.ID("alpha") // a word some seeds hold
		for i, term := range textutil.Tokenize(text) {
			if keep&(1<<(i%64)) != 0 {
				d.s.dict.ID(term)
			}
		}
		want := d.termIDs(textutil.Tokenize(text))
		got := d.textIDs(text)
		if got == nil {
			t.Fatalf("textIDs(%q) is nil, want an empty slice", text)
		}
		if !slices.Equal(got, want) {
			t.Errorf("textIDs(%q) = %v, want %v", text, got, want)
		}
	})
}

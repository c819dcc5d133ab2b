package textutil

import (
	"reflect"
	"sort"
	"testing"
)

func TestRegistrationKeys(t *testing.T) {
	s := NewStats()
	s.AddWeighted("common", 1000)
	s.AddWeighted("mid", 100)
	s.AddWeighted("rare", 1)
	tests := []struct {
		name string
		conj [][]string
		want []string
	}{
		{"and picks least frequent", [][]string{{"common", "rare", "mid"}}, []string{"rare"}},
		{"or registers per conjunction", [][]string{{"common"}, {"mid"}}, []string{"common", "mid"}},
		{"dnf mixed", [][]string{{"common", "mid"}, {"rare"}}, []string{"mid", "rare"}},
		{"duplicate keys deduped", [][]string{{"rare", "common"}, {"rare", "mid"}}, []string{"rare"}},
		{"unseen term wins", [][]string{{"common", "neverseen"}}, []string{"neverseen"}},
		{"empty conjunction skipped", [][]string{{}, {"mid"}}, []string{"mid"}},
		{"no conjunctions", nil, []string{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := s.RegistrationKeys(tt.conj)
			sort.Strings(got)
			want := append([]string{}, tt.want...)
			sort.Strings(want)
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RegistrationKeys(%v) = %v, want %v", tt.conj, got, want)
			}
		})
	}
}

// The registration rule must be stable across callers: dispatcher and
// worker compute keys independently and must agree.
func TestRegistrationKeysDeterministic(t *testing.T) {
	s := NewStats()
	s.AddWeighted("a", 5)
	s.AddWeighted("b", 5) // tie: lexicographic winner
	conj := [][]string{{"b", "a"}}
	first := s.RegistrationKeys(conj)
	for i := 0; i < 10; i++ {
		if got := s.RegistrationKeys(conj); !reflect.DeepEqual(got, first) {
			t.Fatalf("nondeterministic keys: %v vs %v", got, first)
		}
	}
	if first[0] != "a" {
		t.Errorf("tie broken to %q, want lexicographic \"a\"", first[0])
	}
}

// KeyFirst puts each conjunction's least frequent term first, copying
// only when something moves and never touching its input, and FirstTerms
// then reads the keys RegistrationKeys picks.
func TestKeyFirst(t *testing.T) {
	s := NewStats()
	s.AddWeighted("common", 1000)
	s.AddWeighted("mid", 100)
	s.AddWeighted("rare", 1)
	tests := []struct {
		name   string
		conj   [][]string
		want   [][]string
		copied bool
	}{
		{"ordered", [][]string{{"rare", "common"}, {"mid"}}, [][]string{{"rare", "common"}, {"mid"}}, false},
		{"key moved, rest kept in order", [][]string{{"common", "mid", "rare"}}, [][]string{{"rare", "common", "mid"}}, true},
		{"second conjunction", [][]string{{"mid"}, {"common", "mid"}}, [][]string{{"mid"}, {"mid", "common"}}, true},
		{"empty conjunction kept", [][]string{{}, {"common", "rare"}}, [][]string{{}, {"rare", "common"}}, true},
		{"tie goes lexicographic", [][]string{{"y", "x"}}, [][]string{{"x", "y"}}, true},
		{"no conjunctions", nil, nil, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := make([][]string, len(tt.conj))
			for i, c := range tt.conj {
				in[i] = append([]string{}, c...)
			}
			got, copied := s.KeyFirst(tt.conj)
			if copied != tt.copied || !reflect.DeepEqual(got, tt.want) && len(got)+len(tt.want) > 0 {
				t.Errorf("KeyFirst(%v) = %v, %v; want %v, %v", in, got, copied, tt.want, tt.copied)
			}
			if !reflect.DeepEqual(tt.conj, in) && len(in) > 0 {
				t.Errorf("KeyFirst changed its input to %v", tt.conj)
			}
			if !copied && len(got) > 0 && &got[0] != &tt.conj[0] {
				t.Error("an ordered expression was copied")
			}
			keys := FirstTerms(nil, got)
			want := s.RegistrationKeys(in)
			sort.Strings(keys)
			sort.Strings(want)
			if !reflect.DeepEqual(keys, want) && len(keys)+len(want) > 0 {
				t.Errorf("FirstTerms after KeyFirst = %v, RegistrationKeys = %v", keys, want)
			}
		})
	}
}

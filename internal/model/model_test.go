package model

import (
	"reflect"
	"testing"
	"testing/quick"

	"ps2stream/internal/geo"
)

func TestParseExpr(t *testing.T) {
	tests := []struct {
		in      string
		want    Expr
		wantErr bool
	}{
		{"kobe", And("kobe"), false},
		{"kobe AND retired", And("kobe", "retired"), false},
		{"kobe and retired", And("kobe", "retired"), false},
		{"kobe OR lebron OR curry", Or("kobe", "lebron", "curry"), false},
		{"a AND b OR c", Expr{Conj: [][]string{{"a", "b"}, {"c"}}}, false},
		{"a OR b AND c", Expr{Conj: [][]string{{"a"}, {"b", "c"}}}, false},
		{"KOBE", And("kobe"), false},
		{"", Expr{}, true},
		{"AND", Expr{}, true},
		{"a AND", Expr{}, true},
		{"a OR", Expr{}, true},
		{"a b", Expr{}, true},
		{"AND a", Expr{}, true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseExpr(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParseExpr(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && !reflect.DeepEqual(got, tt.want) {
				t.Errorf("ParseExpr(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestExprString(t *testing.T) {
	tests := []struct {
		e    Expr
		want string
	}{
		{And("a"), "a"},
		{And("a", "b"), "a AND b"},
		{Or("a", "b"), "a OR b"},
		{Expr{Conj: [][]string{{"a", "b"}, {"c"}}}, "a AND b OR c"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestExprMatches(t *testing.T) {
	terms := map[string]struct{}{"kobe": {}, "retired": {}, "nba": {}}
	tests := []struct {
		name string
		e    Expr
		want bool
	}{
		{"single hit", And("kobe"), true},
		{"single miss", And("lebron"), false},
		{"and all present", And("kobe", "retired"), true},
		{"and one missing", And("kobe", "lebron"), false},
		{"or one present", Or("lebron", "nba"), true},
		{"or none present", Or("lebron", "curry"), false},
		{"dnf second conj", Expr{Conj: [][]string{{"curry"}, {"kobe", "nba"}}}, true},
		{"empty expr", Expr{}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.e.Matches(terms); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

// Property: MatchesSlice and Matches agree on arbitrary term sets.
func TestMatchesSliceEquivalence(t *testing.T) {
	vocab := []string{"a", "b", "c", "d", "e"}
	f := func(conjBits [3]uint8, termBits uint8) bool {
		var e Expr
		for _, bits := range conjBits {
			var conj []string
			for i, v := range vocab {
				if bits&(1<<i) != 0 {
					conj = append(conj, v)
				}
			}
			if len(conj) > 0 {
				e.Conj = append(e.Conj, conj)
			}
		}
		var terms []string
		set := map[string]struct{}{}
		for i, v := range vocab {
			if termBits&(1<<i) != 0 {
				terms = append(terms, v)
				set[v] = struct{}{}
			}
		}
		return e.Matches(set) == e.MatchesSlice(terms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestExprTerms(t *testing.T) {
	e := Expr{Conj: [][]string{{"b", "a"}, {"a", "c"}}}
	got := e.Terms()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms() = %v, want %v", got, want)
	}
}

func TestExprClone(t *testing.T) {
	e := Expr{Conj: [][]string{{"a", "b"}}}
	c := e.Clone()
	c.Conj[0][0] = "z"
	if e.Conj[0][0] != "a" {
		t.Error("Clone did not deep-copy conjunctions")
	}
}

func TestQueryMatches(t *testing.T) {
	q := &Query{
		ID:     1,
		Expr:   And("kobe", "retired"),
		Region: geo.NewRect(0, 0, 10, 10),
	}
	tests := []struct {
		name string
		o    Object
		want bool
	}{
		{"inside and text ok", Object{Terms: []string{"kobe", "retired", "nba"}, Loc: geo.Point{X: 5, Y: 5}}, true},
		{"outside region", Object{Terms: []string{"kobe", "retired"}, Loc: geo.Point{X: 11, Y: 5}}, false},
		{"text fails", Object{Terms: []string{"kobe"}, Loc: geo.Point{X: 5, Y: 5}}, false},
		{"boundary point", Object{Terms: []string{"kobe", "retired"}, Loc: geo.Point{X: 10, Y: 10}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := q.Matches(&tt.o); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestQuerySizeBytes(t *testing.T) {
	q1 := &Query{Expr: And("a")}
	q2 := &Query{Expr: And("a", "longerterm")}
	if q1.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
	if q2.SizeBytes() <= q1.SizeBytes() {
		t.Error("SizeBytes not monotone in expression size")
	}
}

func TestOpKindString(t *testing.T) {
	if OpObject.String() != "object" || OpInsert.String() != "insert" || OpDelete.String() != "delete" {
		t.Error("OpKind.String mismatch")
	}
	if OpKind(42).String() == "" {
		t.Error("unknown OpKind should still render")
	}
}

// Property: ParseExpr(e.String()) reproduces e for arbitrary generated DNF
// expressions — the parser and printer are inverses on the paper's query
// language.
func TestParseStringRoundTripProperty(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	f := func(shape []uint8) bool {
		if len(shape) == 0 {
			return true
		}
		if len(shape) > 5 {
			shape = shape[:5]
		}
		var e Expr
		v := 0
		for _, s := range shape {
			n := int(s%3) + 1
			conj := make([]string, 0, n)
			for i := 0; i < n; i++ {
				conj = append(conj, vocab[v%len(vocab)])
				v++
			}
			e.Conj = append(e.Conj, conj)
		}
		got, err := ParseExpr(e.String())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MatchesSlice and Matches agree for arbitrary term sets.
func TestMatchesSliceEquivalenceProperty(t *testing.T) {
	vocab := []string{"a", "b", "c", "d"}
	f := func(exprBits, termBits uint8) bool {
		var conj []string
		for i, v := range vocab {
			if exprBits&(1<<uint(i)) != 0 {
				conj = append(conj, v)
			}
		}
		if len(conj) == 0 {
			conj = []string{"a"}
		}
		e := Expr{Conj: [][]string{conj, {"z"}}}
		var terms []string
		for i, v := range vocab {
			if termBits&(1<<uint(i)) != 0 {
				terms = append(terms, v)
			}
		}
		set := make(map[string]struct{}, len(terms))
		for _, tm := range terms {
			set[tm] = struct{}{}
		}
		return e.MatchesSlice(terms) == e.Matches(set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Package model defines the data model of PS2Stream: spatio-textual objects,
// spatio-textual subscription (STS) queries with boolean keyword
// expressions, and the stream operations exchanged between system
// components.
//
// Following §III-A of the paper, an object is o = <text, loc> and an STS
// query is q = <K, R> where K is a set of keywords connected by AND or OR
// operators and R is a rectangle. An object matches a query when its
// location lies in R and its text satisfies the boolean expression.
package model

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"ps2stream/internal/geo"
)

// Object is a spatio-textual object (e.g. a geo-tagged tweet).
type Object struct {
	// ID identifies the object within a stream.
	ID uint64
	// Terms is the tokenised, de-duplicated textual content
	// (textutil.Tokenize of Text). Nil means not made yet: the terms are
	// then Text's, and only a reader that needs them as strings makes
	// them. Core's dispatcher reads Text straight to term ids, and makes
	// Terms before the fan-out for a remote slot or an assignment that
	// routes by strings; a worker engine makes a top-k window entry's
	// own. An object with Terms set is matched on Terms alone.
	Terms []string
	// Text is the raw message text (ps2stream.Publish), or empty for an
	// object built from its terms. It is not encoded on the wire: a
	// remote slot receives Terms.
	Text string
	// Loc is the geographical coordinate of the object.
	Loc geo.Point
}

// Expr is a boolean keyword expression in disjunctive normal form: the
// expression is satisfied when at least one conjunction has all of its
// terms present. The paper's query generator connects 1–3 keywords with
// either AND (one conjunction) or OR (k singleton conjunctions); Expr also
// represents arbitrary DNF combinations.
type Expr struct {
	// Conj holds the conjunctions. Each inner slice is a set of terms
	// that must all be present for the conjunction to be satisfied.
	Conj [][]string
}

// And returns an expression requiring all the given terms.
func And(terms ...string) Expr {
	return Expr{Conj: [][]string{append([]string(nil), terms...)}}
}

// Or returns an expression satisfied by any one of the given terms.
func Or(terms ...string) Expr {
	c := make([][]string, 0, len(terms))
	for _, t := range terms {
		c = append(c, []string{t})
	}
	return Expr{Conj: c}
}

// ErrEmptyExpr is returned by ParseExpr for expressions with no keywords.
var ErrEmptyExpr = errors.New("model: empty keyword expression")

// ParseExpr parses a flat boolean keyword expression of the forms used in
// the paper: "a", "a AND b AND c", or "a OR b OR c". Mixed AND/OR is
// accepted with OR binding looser than AND ("a AND b OR c" parses as
// (a∧b) ∨ c). Operators are case-insensitive.
func ParseExpr(s string) (Expr, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Expr{}, ErrEmptyExpr
	}
	var expr Expr
	var cur []string
	expectTerm := true
	for _, f := range fields {
		switch strings.ToUpper(f) {
		case "AND":
			if expectTerm {
				return Expr{}, fmt.Errorf("model: unexpected AND in %q", s)
			}
			expectTerm = true
		case "OR":
			if expectTerm {
				return Expr{}, fmt.Errorf("model: unexpected OR in %q", s)
			}
			expr.Conj = append(expr.Conj, cur)
			cur = nil
			expectTerm = true
		default:
			if !expectTerm {
				return Expr{}, fmt.Errorf("model: missing operator before %q in %q", f, s)
			}
			cur = append(cur, strings.ToLower(f))
			expectTerm = false
		}
	}
	if expectTerm {
		return Expr{}, fmt.Errorf("model: dangling operator in %q", s)
	}
	expr.Conj = append(expr.Conj, cur)
	return expr, nil
}

// String renders the expression in the paper's syntax.
func (e Expr) String() string {
	parts := make([]string, 0, len(e.Conj))
	for _, c := range e.Conj {
		parts = append(parts, strings.Join(c, " AND "))
	}
	return strings.Join(parts, " OR ")
}

// Empty reports whether the expression has no conjunctions.
func (e Expr) Empty() bool { return len(e.Conj) == 0 }

// Matches reports whether the term set satisfies the expression.
func (e Expr) Matches(terms map[string]struct{}) bool {
conj:
	for _, c := range e.Conj {
		for _, t := range c {
			if _, ok := terms[t]; !ok {
				continue conj
			}
		}
		return true
	}
	return false
}

// MatchesSlice reports whether the term slice satisfies the expression.
// It is equivalent to Matches(setOf(terms)) but avoids building a map for
// small term lists.
func (e Expr) MatchesSlice(terms []string) bool {
conj:
	for _, c := range e.Conj {
		for _, t := range c {
			if !containsStr(terms, t) {
				continue conj
			}
		}
		return true
	}
	return false
}

// Terms returns the distinct terms mentioned anywhere in the expression,
// sorted lexicographically.
func (e Expr) Terms() []string {
	seen := make(map[string]struct{})
	for _, c := range e.Conj {
		for _, t := range c {
			seen[t] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the expression.
func (e Expr) Clone() Expr {
	c := make([][]string, len(e.Conj))
	for i, conj := range e.Conj {
		c[i] = append([]string(nil), conj...)
	}
	return Expr{Conj: c}
}

// Query is a spatio-textual subscription (STS) query q = <K, R>.
type Query struct {
	// ID identifies the subscription; deletions refer to it.
	ID uint64
	// Expr is the boolean keyword expression (q.K).
	Expr Expr
	// Region is the rectangular region of interest (q.R).
	Region geo.Rect
	// Subscriber identifies the registering user; the merger uses it to
	// deliver results.
	Subscriber uint64
	// TopK, when positive together with Window, marks a sliding-window
	// top-k subscription (Wang et al., arXiv:1611.03204): instead of
	// forwarding every match, the system maintains the TopK
	// highest-scored objects published within the trailing Window and
	// delivers membership changes. Zero values give the paper's plain
	// boolean subscription.
	TopK   int
	Window time.Duration
}

// IsTopK reports whether the query is a sliding-window top-k subscription.
func (q *Query) IsTopK() bool { return q.TopK > 0 && q.Window > 0 }

// Matches reports whether object o is a result of query q: o.loc inside
// q.R and o.text satisfying q.K (§III-A). It reads o.Terms, which must
// be made.
func (q *Query) Matches(o *Object) bool {
	return q.Region.Contains(o.Loc) && q.Expr.MatchesSlice(o.Terms)
}

// SizeBytes estimates the serialised size of the query; the migration cost
// S_g of Definition 4 is the sum of this over a cell's queries.
func (q *Query) SizeBytes() int {
	n := 8 + 8 + 4*8 // ID + Subscriber + Region
	if q.TopK > 0 {
		n += 16 // TopK + Window
	}
	for _, c := range q.Expr.Conj {
		n += 8 // conjunction header
		for _, t := range c {
			n += 16 + len(t) // string header + bytes
		}
	}
	return n
}

// OpKind enumerates the operations carried by the unified input stream.
type OpKind uint8

const (
	// OpObject carries a spatio-textual object to be matched.
	OpObject OpKind = iota
	// OpInsert registers a new STS query.
	OpInsert
	// OpDelete drops an existing STS query.
	OpDelete
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpObject:
		return "object"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one element of the workload stream: either an object to match, a
// query insertion, or a query deletion. Exactly one payload field is set
// according to Kind (for OpDelete, the full query is carried so the
// dispatcher can route the deletion to the workers holding it, as in
// §III-B: "the request contains complete information of the STS query").
type Op struct {
	Kind  OpKind
	Obj   *Object
	Query *Query
	// Seq is the position of the op in its stream, used for latency
	// bookkeeping and deterministic replay.
	Seq uint64
}

// Match is a (query, object) result pair produced by a worker and routed to
// a merger for deduplication and delivery.
type Match struct {
	QueryID    uint64
	Subscriber uint64
	ObjectID   uint64
	// Worker records which worker produced the match (for tests and
	// duplicate accounting).
	Worker int
}

func containsStr(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/window"
)

// pageItem is one query or one band of a cell payload, with its cell:
// the unit Pages keeps whole and in order.
type pageItem struct {
	cell  int
	query *model.Query
	sub   *SubEntries
}

// pageItems lists the items of cells in order: each payload's queries,
// then its bands.
func pageItems(cells []CellPayload) []pageItem {
	var out []pageItem
	for _, c := range cells {
		for _, q := range c.Queries {
			out = append(out, pageItem{cell: c.Cell, query: q})
		}
		for i := range c.Subs {
			out = append(out, pageItem{cell: c.Cell, sub: &c.Subs[i]})
		}
	}
	return out
}

// TestPagesRoundTripWithinBudget: every page decodes, the pages decoded
// in order hold the input's queries and bands in order, and a page
// exceeds the budget only when it holds one item alone.
func TestPagesRoundTripWithinBudget(t *testing.T) {
	const budget = 400
	at := time.Unix(1700000000, 5)
	query := func(id uint64, kw string) *model.Query {
		return &model.Query{ID: id, Subscriber: id % 3, Expr: model.And(kw, "x"), Region: geo.NewRect(0, 0, 1, 1)}
	}
	var many []*model.Query
	for i := range 40 {
		many = append(many, query(uint64(i+1), strings.Repeat("k", i%9)))
	}
	topk := query(100, "band")
	topk.TopK, topk.Window = 3, time.Minute
	band := func(id uint64, n int) SubEntries {
		se := SubEntries{ID: id}
		for j := range n {
			se.Entries = append(se.Entries, window.Entry{MsgID: uint64(j + 1), Terms: []string{"band", "y"},
				Loc: geo.Point{X: 0.5, Y: 0.5}, At: at.Add(time.Duration(j) * time.Second)})
		}
		return se
	}
	huge := query(200, strings.Repeat("h", 3*budget))

	for _, tc := range []struct {
		name  string
		cells []CellPayload
		pages int // at least
	}{
		{"queries", []CellPayload{{Cell: WholeQueries, Queries: many}}, 3},
		{"queries with bands", []CellPayload{
			{Cell: 7, Queries: append([]*model.Query{topk}, many[:20]...), Subs: []SubEntries{band(100, 6), band(101, 1)}},
			{Cell: 8},
			{Cell: 9, Subs: []SubEntries{band(102, 4)}},
			{Cell: 10, Queries: many[20:]},
		}, 3},
		{"one query over the budget", []CellPayload{{Cell: 3, Queries: []*model.Query{many[0], huge, many[1]}}}, 3},
		{"empty", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pages := Pages(tc.cells, budget)
			if len(pages) < tc.pages {
				t.Fatalf("%d pages, want at least %d", len(pages), tc.pages)
			}
			var got []CellPayload
			for i, pg := range pages {
				enc := AppendInstallCells(nil, pg)
				if n := len(pageItems(pg.Cells)); n == 0 || len(enc) > budget && n != 1 {
					t.Errorf("page %d: %d bytes holding %d items, want at most %d bytes or one item", i, len(enc), n, budget)
				}
				p, err := DecodeBinPage(enc)
				if err != nil {
					t.Fatalf("page %d: %v", i, err)
				}
				if re := p.appendTo(nil); !bytes.Equal(re, enc) {
					t.Errorf("page %d: the kept encoding re-encodes to other bytes", i)
				}
				ic, err := p.Decode()
				if err != nil {
					t.Fatalf("page %d: %v", i, err)
				}
				if ic.Seq != 0 || ic.Deletes != nil {
					t.Errorf("page %d: sequence %d and deletes %v, want neither", i, ic.Seq, ic.Deletes)
				}
				got = append(got, ic.Cells...)
			}
			want, have := pageItems(tc.cells), pageItems(got)
			if len(have) != len(want) {
				t.Fatalf("the pages hold %d items, want %d", len(have), len(want))
			}
			for i := range want {
				if have[i].cell != want[i].cell ||
					!reflect.DeepEqual(have[i].query, want[i].query) || !reflect.DeepEqual(have[i].sub, want[i].sub) {
					t.Fatalf("item %d: %+v, want %+v", i, have[i], want[i])
				}
			}
		})
	}
}

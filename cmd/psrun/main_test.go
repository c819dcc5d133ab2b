package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ps2stream/internal/core"
	"ps2stream/internal/geo"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/snapshot"
)

func TestBuilderFor(t *testing.T) {
	for _, name := range []string{"", "hybrid", "frequency", "hypergraph", "metric", "grid", "kdtree", "rtree"} {
		b, err := builderFor(name)
		if err != nil || b == nil {
			t.Errorf("builderFor(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := builderFor("voronoi"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestRestoreChecksBounds: -restore refuses a snapshot taken over other
// bounds than the replay's, and restores one taken over the same bounds.
func TestRestoreChecksBounds(t *testing.T) {
	bounds := geo.NewRect(0, 0, 100, 100)
	qs := []*model.Query{
		{ID: 1, Expr: model.And("coffee"), Region: geo.NewRect(10, 10, 20, 20)},
		{ID: 2, Expr: model.Or("tea", "cake"), Region: geo.NewRect(50, 50, 60, 60)},
	}
	sys, err := core.New(core.Config{Workers: 2}, partition.NewSample(nil, qs, bounds, load.DefaultCosts))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	write := func(name string, b geo.Rect) string {
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Write(f, b, qs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	n, err := restoreFrom(sys, write("elsewhere.snap", geo.NewRect(0, 0, 50, 50)))
	if !errors.Is(err, core.ErrBoundsMismatch) || n != 0 {
		t.Errorf("snapshot over other bounds: restored %d, err %v; want 0 and ErrBoundsMismatch", n, err)
	}
	if n, err := restoreFrom(sys, write("here.snap", bounds)); err != nil || n != len(qs) {
		t.Errorf("snapshot over the same bounds: restored %d, err %v; want %d", n, err, len(qs))
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if live, err := sys.LiveQueries(); err != nil || len(live) != len(qs) {
		t.Errorf("after the replay: %d live queries (err %v), want only the %d restored", len(live), err, len(qs))
	}
}

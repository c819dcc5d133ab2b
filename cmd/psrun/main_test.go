package main

import "testing"

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

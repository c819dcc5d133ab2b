package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"ps2stream/internal/metrics"
)

// TestEveryFrameTypeHasMetricSeries: every Type constant declared in
// frame.go has a name and a ps2_wire_frames_total series in each
// direction, so a frame type added without one fails here.
func TestEveryFrameTypeHasMetricSeries(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "frame.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	RegisterMetrics(reg)
	have := map[string]bool{}
	for _, s := range reg.Gather() {
		if s.Name == "ps2_wire_frames_total" {
			have[s.Labels["dir"]+" "+s.Labels["kind"]] = true
		}
	}
	types := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Type") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.INT {
					t.Fatalf("%s is not an integer literal", name.Name)
				}
				v, err := strconv.ParseUint(lit.Value, 0, 8)
				if err != nil {
					t.Fatalf("%s: %v", name.Name, err)
				}
				types++
				kind := TypeName(byte(v))
				if kind == "other" {
					t.Errorf("%s (%d) has no name", name.Name, v)
					continue
				}
				for _, dir := range []string{"tx", "rx"} {
					if !have[dir+" "+kind] {
						t.Errorf("%s (%d) has no ps2_wire_frames_total{dir=%q,kind=%q} series", name.Name, v, dir, kind)
					}
				}
			}
		}
	}
	if types < int(TypeAdvanceAck) {
		t.Errorf("found %d frame types in frame.go, want at least %d", types, TypeAdvanceAck)
	}
}

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

// frameTypeConsts parses frame.go and returns its Type constants by
// number.
func frameTypeConsts(t *testing.T) map[int]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "frame.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[int]string{}
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
				consts[int(v)] = name.Name
			}
		}
	}
	// Type 9 is retired, so one number below the last is unused.
	if len(consts) < int(TypeAdvanceAck)-1 {
		t.Fatalf("found %d frame types in frame.go, want at least %d", len(consts), TypeAdvanceAck-1)
	}
	return consts
}

// TestEveryFrameTypeHasMetricSeries: every Type constant declared in
// frame.go has a name and a ps2_wire_frames_total series in each
// direction, so a frame type added without one fails here.
func TestEveryFrameTypeHasMetricSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	RegisterMetrics(reg)
	have := map[string]bool{}
	for _, s := range reg.Gather() {
		if s.Name == "ps2_wire_frames_total" {
			have[s.Labels["dir"]+" "+s.Labels["kind"]] = true
		}
	}
	for v, name := range frameTypeConsts(t) {
		kind := TypeName(byte(v))
		if kind == "other" {
			t.Errorf("%s (%d) has no name", name, v)
			continue
		}
		for _, dir := range []string{"tx", "rx"} {
			if !have[dir+" "+kind] {
				t.Errorf("%s (%d) has no ps2_wire_frames_total{dir=%q,kind=%q} series", name, v, dir, kind)
			}
		}
	}
}

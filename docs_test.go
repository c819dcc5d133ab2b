package ps2stream

// Documentation hygiene checks, run by the CI docs job: every relative
// link in the repository's markdown files must point at a file or
// directory that exists, so the paper-to-code map and wire-format docs
// cannot silently rot as the tree moves underneath them.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"ps2stream/internal/wire"
)

// mdLink matches inline markdown links [text](target); images share the
// syntax and are checked the same way.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocRelativeLinks fails on any relative markdown link whose target
// does not exist on disk.
func TestDocRelativeLinks(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == ".claude" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(strings.ToLower(d.Name()), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found; the link check is vacuous")
	}
	checked := 0
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue // external links and intra-document anchors
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(f), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s)", f, m[1], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Log("no relative links found")
	}
}

// wireDocRow matches a row of docs/WIRE.md's frame table: the type
// number, then the frame's Go name or "retired".
var wireDocRow = regexp.MustCompile("(?m)^\\| ([0-9]+) \\| (?:`(\\w+)`|(retired)) \\|")

// TestWireDocFrameTable fails when a number or name in docs/WIRE.md's
// frame table disagrees with the wire package's frame table: each row's
// Go name, in snake case, is its type's metric name, a retired number has
// no row in the code, and every frame type has a row in the document.
func TestWireDocFrameTable(t *testing.T) {
	body, err := os.ReadFile("docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := wireDocRow.FindAllStringSubmatch(string(body), -1)
	if len(rows) == 0 {
		t.Fatal("vacuous: no frame table rows in docs/WIRE.md")
	}
	documented := map[int]bool{}
	for _, m := range rows {
		n, err := strconv.Atoi(m[1])
		if err != nil || n > 255 {
			t.Fatalf("frame table row %q: bad type number", m[0])
		}
		documented[n] = true
		want := "other" // a retired number has no row in the code
		if m[2] != "" {
			want = snakeCase(m[2])
		}
		if got := wire.TypeName(byte(n)); got != want {
			t.Errorf("docs/WIRE.md row %d names %q, the frame table %q", n, want, got)
		}
	}
	for n := range 256 {
		if name := wire.TypeName(byte(n)); name != "other" && !documented[n] {
			t.Errorf("frame type %d (%s) has no row in docs/WIRE.md", n, name)
		}
	}
}

// snakeCase turns a Go name such as WindowDeltaBatch into
// window_delta_batch.
func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

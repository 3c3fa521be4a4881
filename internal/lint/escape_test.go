package lint

import (
	"path/filepath"
	"testing"
)

// TestEscapeFactsMatchPrintedPath: verdicts for a same-named file of
// another package (a generic instantiated here reports at its own source
// position) must not be attributed to this package's file.
func TestEscapeFactsMatchPrintedPath(t *testing.T) {
	out := []byte(`internal/memo/cache.go:59:13: make(map[K]V) escapes to heap
internal/responder/cache.go:59:7: &respEntry{...} escapes to heap
./handler.go:12:3: s does not escape
`)
	facts := parseEscapeOutput(out)
	own := filepath.FromSlash("/src/repo/internal/responder/cache.go")
	vs := facts.At(own, 59)
	if len(vs) != 1 || vs[0].Text != "&respEntry{...} escapes to heap" {
		t.Fatalf("At(responder/cache.go:59) = %+v, want only the responder verdict", vs)
	}
	if vs := facts.At(filepath.FromSlash("/src/repo/internal/ocspserver/handler.go"), 12); len(vs) != 1 || vs[0].Escapes {
		t.Fatalf("At(handler.go:12) = %+v, want one non-escaping verdict", vs)
	}
	if vs := facts.At(filepath.FromSlash("/src/repo/internal/store/cache.go"), 59); len(vs) != 0 {
		t.Fatalf("At(store/cache.go:59) = %+v, want none", vs)
	}
}

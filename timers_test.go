package quorumconf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnstoppedTimeAfter keeps time.After and time.Tick out of the
// program code under internal/ and cmd/. go.mod declares go 1.22, so the
// runtime keeps the pre-1.23 timer semantics: a timer nobody stops stays in
// the timer heap until it fires, whether or not anyone still waits on it. A
// request path that leaves one behind per request grows the heap to rate ×
// timeout entries, and every other timer operation pays for that. Use
// time.NewTimer and stop it when the wait ends.
func TestNoUnstoppedTimeAfter(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			timePkg := timeName(f)
			if timePkg == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timePkg && (sel.Sel.Name == "After" || sel.Sel.Name == "Tick") {
					found = append(found, fset.Position(call.Pos()).String()+": time."+sel.Sel.Name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range found {
		t.Errorf("%s leaves its timer running after the wait ends; use time.NewTimer and Stop it", f)
	}
}

// timeName is the name f refers to package time by, "" when f does not
// import it.
func timeName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != "time" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "time"
	}
	return ""
}

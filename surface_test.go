package quorumconf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoExportOnlyTestsCall keeps the internal packages' surface to what
// the program uses: every exported function or method declared in a
// non-test file under internal/ must be named somewhere besides its own
// declaration, in a non-test file of the tree (bench/ included) or in the
// root example_test.go, whose examples go test runs. An export that only
// tests call is either dead or a test's private hook; unexport it, or
// delete it with its test. Names are matched without their package or
// receiver, so a shared name can hide dead code but never flags live code.
// The allowed names are the methods that satisfy an interface the program
// calls through (fmt.Stringer, error, json's Marshaler and Unmarshaler,
// heap.Interface).
func TestNoExportOnlyTestsCall(t *testing.T) {
	allowed := map[string]bool{
		"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
		"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	}
	fset := token.NewFileSet()
	named := map[string]bool{}
	type export struct{ name, pos string }
	var exports []export
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		if strings.HasSuffix(path, "_test.go") && path != "example_test.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				declared[fn.Name] = true
				if fn.Name.IsExported() && strings.HasPrefix(path, "internal/") && !strings.HasSuffix(path, "_test.go") {
					exports = append(exports, export{fn.Name.Name, fset.Position(fn.Pos()).String()})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(exports, func(i, j int) bool { return exports[i].pos < exports[j].pos })
	for _, e := range exports {
		if !named[e.name] && !allowed[e.name] {
			t.Errorf("%s: %s is exported but only tests name it; unexport it, or delete it with its test", e.pos, e.name)
		}
	}
}

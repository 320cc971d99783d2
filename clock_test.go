package quorumconf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestDaemonEngineHasOneClock keeps internal/daemon's protocol engine on one
// clock, the time since Start. Outside the HTTP shell in api.go (request
// timers, request latency, the uptime gauge), only Daemon.now reads the wall
// clock, only Daemon.after schedules, Start sets the clock's origin
// (Daemon.started), and instant maps an engine time onto the time.Time scale
// package health measures on. No other code may call the time functions
// below or name time.Time or time.Timer, so no engine field holds one, and
// a driver that owns now and after owns every protocol time.
func TestDaemonEngineHasOneClock(t *testing.T) {
	forbidden := map[string]bool{"Now": true, "Since": true, "Until": true, "AfterFunc": true, "NewTimer": true, "Sleep": true, "Time": true, "Timer": true}
	seams := map[string]bool{"now": true, "after": true, "Start": true, "instant": true}
	files, err := filepath.Glob(filepath.Join("internal", "daemon", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") || filepath.Base(path) == "api.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := timeName(f)
		if timePkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !seams[n.Name.Name]
			case *ast.Field:
				return !(len(n.Names) == 1 && n.Names[0].Name == "started")
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == timePkg && forbidden[n.Sel.Name] {
					t.Errorf("%s: time.%s outside the engine clock (Daemon.now, Daemon.after)", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
	}
}

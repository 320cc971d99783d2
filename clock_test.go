package quorumconf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestDaemonEngineHasOneClock keeps internal/daemon's protocol engine behind
// one seam, the Daemon fields clock, sched and out that Start binds and a
// test harness binds its own way. Outside the HTTP shell in api.go (request
// timers, request latency), only Start calls the time functions below — to
// bind clock and sched — and instant maps an engine time onto the time.Time
// scale package health measures on; no other code may name time.Time or
// time.Timer, so no engine field holds one. Only the shell names the UDP
// transport, Daemon.tr: Start, AddPeer, UDPAddr, Kill and statusView's UDP
// address. Whoever binds the seam then owns every protocol time and every
// message the engine sends.
func TestDaemonEngineHasOneClock(t *testing.T) {
	forbidden := map[string]bool{"Now": true, "Since": true, "Until": true, "AfterFunc": true, "NewTimer": true, "Sleep": true, "Time": true, "Timer": true}
	clockSeams := map[string]bool{"Start": true, "instant": true}
	shell := map[string]bool{"Start": true, "AddPeer": true, "UDPAddr": true, "Kill": true, "statusView": true}
	files, err := filepath.Glob(filepath.Join("internal", "daemon", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := timeName(f)
		if filepath.Base(path) == "api.go" {
			timePkg = "" // the HTTP shell times requests on the wall clock
		}
		for _, decl := range f.Decls {
			fn := ""
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = d.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && timePkg != "" && pkg.Name == timePkg && forbidden[sel.Sel.Name] && !clockSeams[fn] {
					t.Errorf("%s: time.%s outside the engine clock (Daemon.clock, Daemon.sched)", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				if sel.Sel.Name == "tr" && !shell[fn] {
					t.Errorf("%s: the transport named outside the shell; the engine sends through Daemon.out", fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
}

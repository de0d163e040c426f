package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLife requires every `go` statement in the concurrent serving
// packages to be tied to a shutdown mechanism the spawner can observe:
//
//   - a sync.WaitGroup Done (the worker-pool pattern: Add before
//     spawning, Done in the body, Wait at drain);
//   - a receive from ctx.Done() (the goroutine parks on cancellation);
//   - a receive from — or range over — a channel (the goroutine drains
//     until its feed channel closes).
//
// Sends alone do not count: a goroutine that only sends can block
// forever on an abandoned unbuffered channel, which is exactly the leak
// class this rule exists for. A daemon that leaks one goroutine per
// request dies slowly; internal/service/leak_test.go pins the same
// property dynamically for the server's drain path.
//
// The body examined is the spawned function literal, or the declaration
// of a same-package named function when the `go` statement calls one.
// Cross-package spawns are opaque and reported (spawn something you can
// see, or wrap it).
var GoroutineLife = &Analyzer{
	Name: "goroutinelife",
	Doc:  "every go statement needs a shutdown tie: WaitGroup.Done, ctx.Done() receive, or a channel receive/range in its body",
	Applies: pathIn(
		"repro/internal/service",
		"repro/internal/store",
		"repro/internal/client",
		"repro/internal/harness",
		"repro/internal/faultinject",
		"repro/internal/experiments",
		"repro/internal/workload",
		"repro/internal/fabric",
	),
	Run: runGoroutineLife,
}

func runGoroutineLife(pass *Pass) {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := spawnedBody(pass, decls, g)
			if body == nil {
				pass.Reportf(g.Pos(), "go statement spawns a function this package cannot see into; spawn a local function with a visible shutdown tie")
				return true
			}
			if !hasShutdownTie(pass, body) {
				pass.Reportf(g.Pos(), "goroutine has no shutdown tie (WaitGroup.Done, ctx.Done() receive, or channel receive/range); it can outlive the server's drain")
			}
			return true
		})
	}
}

// spawnedBody resolves the body run by the go statement: a literal's
// own body, or the body of a same-package named function.
func spawnedBody(pass *Pass, decls map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) *ast.BlockStmt {
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	default:
		if fn := calleeFunc(pass.Pkg.Info, g.Call); fn != nil {
			if fd, ok := decls[fn]; ok {
				return fd.Body
			}
		}
	}
	return nil
}

// hasShutdownTie scans a goroutine body for any accepted mechanism.
func hasShutdownTie(pass *Pass, body *ast.BlockStmt) bool {
	info := pass.Pkg.Info
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			// sync.WaitGroup.Done — the pool pattern.
			if fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Done" {
				tied = true
			}
		case *ast.UnaryExpr:
			// Any receive counts: <-ctx.Done(), <-quit, <-jobs. The
			// spawner controls the channel's lifetime, so the goroutine
			// has an exit signal.
			if n.Op == token.ARROW {
				tied = true
			}
		case *ast.RangeStmt:
			// range over a channel drains until close.
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					tied = true
				}
			}
		}
		return true
	})
	return tied
}

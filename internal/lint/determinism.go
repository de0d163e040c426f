package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// determinismScope lists every package that contributes to the numbers
// in the paper's tables and figures. Two runs of the same configuration
// must produce bit-identical Stats and report output; the wall clock,
// the process-seeded global math/rand, and Go's randomized map
// iteration order are the three stdlib sources of run-to-run variation.
// (internal/harness is deliberately out of scope: its manifest records
// real wall-clock timestamps and durations, which are metadata about a
// run, not results of it.)
var determinismScope = pathIn(
	"repro/internal/core",
	"repro/internal/mmu",
	"repro/internal/sim",
	"repro/internal/sched",
	"repro/internal/trace",
	"repro/internal/mips",
	"repro/internal/progs",
	"repro/internal/workload",
	"repro/internal/synth",
	"repro/internal/experiments",
	"repro/internal/report",
	// Screening results are content-address cached like exact ones, so
	// the stack-distance histograms must be bit-identical run to run.
	"repro/internal/stackdist",
	// Sampled results are cached and compared the same way: interval
	// placement and the CI arithmetic must be bit-stable run to run.
	"repro/internal/sample",
	// The serving layer is in scope because its result cache replays
	// stored bytes as if freshly simulated: any nondeterminism that
	// leaked into a result body would break the byte-identity the cache
	// is built on. Its operational metadata (latency metrics, uptime)
	// is intentionally wall-clock-based and mutable, and is allowlisted
	// at the few sites that touch the clock (see service/metrics.go).
	"repro/internal/service",
	// The durability layer replays stored result bytes as fresh ones,
	// so the same byte-identity argument applies. The fault injector
	// must be deterministic by design (a failing schedule has to replay
	// from its seed), and the client's backoff jitter uses the same
	// seeded generator; their few legitimate wall-clock reads are
	// individually allowlisted.
	"repro/internal/store",
	"repro/internal/faultinject",
	"repro/internal/client",
	// The fabric coordinator relays worker-produced result bytes
	// verbatim; its own wall-clock uses (heartbeat liveness, hedge
	// timers, uptime) are operational and individually allowlisted.
	"repro/internal/fabric",
)

// Determinism forbids the nondeterminism sources in simulator and
// reporting code: time.Now, the math/rand package (its global functions
// are seeded per process; use the repo's explicit-seed generators in
// internal/synth instead), ranging over a map (iteration order is
// randomized — collect the keys and sort them first), and writes to
// package-level state from functions that take no sync primitive.
// The last rule exists because workload.RunParallel fans configuration
// runs and suite packing over goroutines: shared mutable globals in any
// package those runs enter are data races, and racy memoization is the
// classic way byte-identical reports stop being byte-identical.
var Determinism = &Analyzer{
	Name:    "determinism",
	Doc:     "simulator/report packages: no time.Now, no math/rand, no map iteration, no unsynchronized global writes",
	Applies: determinismScope,
	Run:     runDeterminism,
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"%s is process-seeded; simulator code must use an explicit-seed generator (see internal/synth) so runs replay bit-for-bit", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if obj, ok := info.Uses[n.Sel]; ok && obj.Pkg() != nil &&
					obj.Pkg().Path() == "time" && obj.Name() == "Now" {
					pass.Reportf(n.Pos(),
						"time.Now in simulator code makes cycle accounting irreproducible; thread simulated time (System.Now) or move the timing to the harness")
				}
			case *ast.RangeStmt:
				t := info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(),
						"map iteration order is randomized; collect the keys, sort them, and range over the slice so emitted results are stable")
				}
			}
			return true
		})
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// init runs once, before main, on one goroutine.
			if fn.Recv == nil && fn.Name.Name == "init" {
				continue
			}
			checkGlobalWrites(pass, info, fn)
		}
	}
}

// checkGlobalWrites reports assignments and ++/-- whose target is (or
// is reached through) a package-level variable, inside a function that
// never touches sync or sync/atomic. Using any sync primitive anywhere
// in the function (including its closures) counts as synchronized: the
// rule is a race tripwire for memoization caches and global counters,
// not a lock-discipline prover.
func checkGlobalWrites(pass *Pass, info *types.Info, fn *ast.FuncDecl) {
	if usesSyncPrimitive(info, fn) {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportIfGlobalWrite(pass, info, lhs)
			}
		case *ast.IncDecStmt:
			reportIfGlobalWrite(pass, info, n.X)
		}
		return true
	})
}

// usesSyncPrimitive reports whether fn references anything exported by
// sync or sync/atomic (Mutex methods, Once.Do, atomic.AddUint64, ...).
func usesSyncPrimitive(info *types.Info, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		if obj, ok := info.Uses[sel.Sel]; ok && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync", "sync/atomic":
				found = true
			}
		}
		return !found
	})
	return found
}

// reportIfGlobalWrite resolves the base of an assignment target
// (unwrapping index and field selections) and reports it when that base
// is a package-level variable. Writes through pointers (*p = v, or a
// base that is itself a local pointer) are out of reach of this
// syntactic check and are left to the race detector.
func reportIfGlobalWrite(pass *Pass, info *types.Info, lhs ast.Expr) {
	base := lhs
walk:
	for {
		switch e := base.(type) {
		case *ast.ParenExpr:
			base = e.X
		case *ast.IndexExpr:
			base = e.X
		case *ast.SelectorExpr:
			// A qualified reference (pkg.Var) resolves directly; a
			// field selection (x.f) walks down to its receiver base.
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					base = e.Sel
					continue
				}
			}
			base = e.X
		default:
			break walk
		}
	}
	id, ok := base.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return
	}
	pass.Reportf(lhs.Pos(),
		"write to package-level %s outside a sync-using function; parallel sweeps (workload.RunParallel) enter this package from many goroutines — guard the state with a sync primitive or keep it per-run", obj.Name())
}

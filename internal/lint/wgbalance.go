package lint

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// WGBalanceAnalyzer flags the two classic sync.WaitGroup accounting
// bugs inside spawned goroutines:
//
//   - wg.Add called inside the goroutine it accounts for. The spawner
//     can reach wg.Wait before the goroutine is scheduled, so Wait
//     returns while work is still running — the fan-out then reads
//     partial results, which in this codebase means a nondeterministic
//     (or racy) rule set. Add must happen before the `go` statement.
//   - wg.Done not deferred. A panic (or an early return added later)
//     skips the Done and Wait deadlocks the whole pipeline. `defer
//     wg.Done()` as the goroutine's first statement is the sanctioned
//     shape — it is what internal/core/parallel.go does, and what the
//     worker-pool merge discipline assumes.
//
// The check is intraprocedural over each `go func() {...}()` body;
// Done calls routed through helpers are not seen. An intentional
// exception takes `//lint:allow wgbalance <why>`.
var WGBalanceAnalyzer = &analysis.Analyzer{
	Name:     "wgbalance",
	Doc:      "flags WaitGroup Add inside the spawned goroutine and Done not deferred",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runWGBalance,
}

var wgBalanceScope string

func init() {
	WGBalanceAnalyzer.Flags.StringVar(&wgBalanceScope, "scope",
		`(^|/)internal/`,
		"regexp of package import paths the analyzer applies to")
}

func runWGBalance(pass *analysis.Pass) (interface{}, error) {
	if !compileScope(wgBalanceScope)(pkgPath(pass)) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := newDirectives(pass)

	ins.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		gs := n.(*ast.GoStmt)
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok || isTestFile(pass, gs.Pos()) {
			return
		}

		// Calls that execute at defer time (including those inside a
		// deferred closure) satisfy the "Done deferred" requirement.
		deferred := make(map[*ast.CallExpr]bool)
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			ds, ok := m.(*ast.DeferStmt)
			if !ok {
				return true
			}
			deferred[ds.Call] = true
			ast.Inspect(ds.Call, func(inner ast.Node) bool {
				if c, ok := inner.(*ast.CallExpr); ok {
					deferred[c] = true
				}
				return true
			})
			return true
		})

		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if _, isGo := m.(*ast.GoStmt); isGo {
				return false // nested goroutines get their own visit
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, recv, method, ok := methodOn(pass, call)
			if !ok || path != "sync" || recv != "WaitGroup" {
				return true
			}
			switch method {
			case "Add":
				report(pass, dirs, "wgbalance", call.Pos(),
					"WaitGroup.Add inside the goroutine it accounts for: Wait can return before this runs; Add before the go statement")
			case "Done":
				if !deferred[call] {
					report(pass, dirs, "wgbalance", call.Pos(),
						"WaitGroup.Done not deferred: a panic or early return skips it and Wait deadlocks; use `defer wg.Done()` first in the goroutine")
				}
			}
			return true
		})
	})
	return nil, nil
}

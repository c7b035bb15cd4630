package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// RawSleep flags time.Sleep calls lexically inside for/range loops outside
// the one blessed backoff site. A sleep in a retry loop is policy: it
// decides how hard the node hammers a flaky link. That policy belongs in
// the node's bounded-retry backoff (internal/dstorm/retry.go), where it is
// configurable, deadline-bounded, and counted in RetryStats. A sleep in a
// poll loop is latency: a sub-millisecond sleep costs about a millisecond
// on a loaded box, so a wait must wake on its event (a channel, a timer)
// instead. A raw sleep anywhere else is an invisible, unconfigurable,
// untestable backoff or poll. Sleeps that are not loop-driven (modeled network delay, injected
// compute jitter) are not flagged; a sleep inside a closure is attributed
// to the closure, not to a loop that happens to enclose the literal.
var RawSleep = &Analyzer{
	Name: "rawsleep",
	Doc:  "time.Sleep in retry/poll loops is reserved for the blessed backoff site",
	Run:  runRawSleep,
}

// blessedSleepFiles may sleep inside loops: the audited backoff
// implementation the rest of the module is supposed to reuse.
var blessedSleepFiles = []string{
	"internal/dstorm/retry.go",
}

func runRawSleep(pass *Pass) error {
	for _, f := range pass.Files {
		filename := filepath.ToSlash(pass.Fset.Position(f.Pos()).Filename)
		blessed := false
		for _, suffix := range blessedSleepFiles {
			if strings.HasSuffix(filename, suffix) {
				blessed = true
				break
			}
		}
		if blessed {
			continue
		}
		// Maintain the ancestor stack (ast.Inspect signals a pop with nil)
		// so loop depth can be measured up to the nearest function
		// boundary.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcFor(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || fn.Name() != "Sleep" {
				return true
			}
			if loopDepth(stack) > 0 {
				pass.Reportf(call.Pos(),
					"time.Sleep in a loop outside the blessed backoff site; route retries through dstorm.RetryPolicy and wake waits on an event (channel or timer), not a sleep-poll")
			}
			return true
		})
	}
	return nil
}

// loopDepth counts enclosing for/range statements between the top of the
// stack and the nearest enclosing function literal or declaration.
func loopDepth(stack []ast.Node) int {
	depth := 0
	for i := len(stack) - 2; i >= 0; i-- { // -2: skip the call itself
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return depth
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		}
	}
	return depth
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ResFeedback guards the error-feedback compression contract
// (internal/compress): a compress.State owns one Plan and one residual
// vector per link, and Begin re-plans IN PLACE — it overwrites the Recon
// scratch and updates the destination's residual as a side effect. Slices
// obtained from the state therefore have a one-Begin lifetime:
//
//   - stale read: a Recon(), Residual(...) or EncodeRange(...) result read
//     after a later Begin aliases storage the re-plan already overwrote —
//     the reader sees the NEXT update's reconstruction (or a frame sliced
//     from it) and silently folds the wrong gradient;
//   - residual mutation: writing through a Residual(...) result edits the
//     live error-feedback accumulator behind the codec's back, breaking
//     the conservation invariant (shipped + residual == raw gradient) that
//     makes lossy compression converge — dropped mass must only ever move
//     between the residual and a frame, never vanish.
//
// The analysis is per-function and flow-ordered like bufretain: branches
// are tracked separately and merged, loop bodies are walked twice so
// scratch obtained before a back edge meets the next iteration's Begin,
// and re-pointing a variable stops tracking it. Copying out (copy(dst,
// recon), append([]float64(nil), recon...)) is the blessed escape and is
// never flagged.
var ResFeedback = &Analyzer{
	Name: "resfeedback",
	Doc:  "compression Recon/Residual/frame scratch is invalidated by the next Begin, and residuals are the codec's to mutate",
	Run:  runResFeedback,
}

const compressPkgPath = "malt/internal/compress"

// scratchKind distinguishes the three one-Begin-lifetime results.
type scratchInfo struct {
	kind     string    // "Recon", "Residual" or "EncodeRange"
	pos      token.Pos // where the scratch was obtained
	stale    bool      // a later Begin has re-planned the state
	beginPos token.Pos // the Begin that staled it
}

type scratchSet map[types.Object]scratchInfo

func (ss scratchSet) clone() scratchSet {
	out := make(scratchSet, len(ss))
	for k, v := range ss {
		out[k] = v
	}
	return out
}

func runResFeedback(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w := &scratchWalker{pass: pass, reported: map[token.Pos]bool{}}
					w.block(n.Body.List, scratchSet{})
				}
			case *ast.FuncLit:
				w := &scratchWalker{pass: pass, reported: map[token.Pos]bool{}}
				w.block(n.Body.List, scratchSet{})
			}
			return true
		})
	}
	return nil
}

type scratchWalker struct {
	pass     *Pass
	reported map[token.Pos]bool // dedup across the second loop-body walk
}

func (w *scratchWalker) reportf(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Reportf(pos, format, args...)
}

// stateMethod returns the method name when call is a compress.State method
// from the scratch-producing or re-planning set. BeginGroup re-plans exactly
// as Begin does and reports as "Begin".
func stateMethod(info *types.Info, call *ast.CallExpr) string {
	fn := funcFor(info, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	switch name {
	case "BeginGroup":
		name = "Begin"
	case "Begin", "Recon", "Residual", "EncodeRange":
	default:
		return ""
	}
	pkgPath, typeName, isMethod := recvTypeName(fn)
	if !isMethod || pkgPath != compressPkgPath || typeName != "State" {
		return ""
	}
	return name
}

func (w *scratchWalker) block(stmts []ast.Stmt, scratch scratchSet) scratchSet {
	for _, s := range stmts {
		scratch = w.stmt(s, scratch)
	}
	return scratch
}

func (w *scratchWalker) stmt(s ast.Stmt, scratch scratchSet) scratchSet {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scan(s.X, scratch)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scan(e, scratch)
		}
		for i, lhs := range s.Lhs {
			w.checkWrite(lhs, scratch)
			obj := baseObject(w.pass.Info, lhs)
			if obj == nil || !isWholeVar(lhs) {
				continue
			}
			// Re-pointing the name stops tracking it; re-pointing it at a
			// fresh scratch result starts a new one-Begin lifetime.
			delete(scratch, obj)
			if len(s.Rhs) == len(s.Lhs) {
				if call, ok := unparen(s.Rhs[i]).(*ast.CallExpr); ok {
					switch m := stateMethod(w.pass.Info, call); m {
					case "Recon", "Residual", "EncodeRange":
						scratch[obj] = scratchInfo{kind: m, pos: lhs.Pos()}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scan(e, scratch)
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// Closure bodies are walked as their own functions.
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.scan(e, scratch)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, scratch)
	case *ast.BlockStmt:
		return w.block(s.List, scratch)
	case *ast.IfStmt:
		if s.Init != nil {
			scratch = w.stmt(s.Init, scratch)
		}
		w.scan(s.Cond, scratch)
		bodyOut := w.block(s.Body.List, scratch.clone())
		elseOut := scratch.clone()
		if s.Else != nil {
			elseOut = w.stmt(s.Else, scratch.clone())
		}
		// Conservative union: stale on either path means stale after.
		merged := bodyOut
		for k, v := range elseOut {
			if prev, ok := merged[k]; !ok || (v.stale && !prev.stale) {
				merged[k] = v
			}
		}
		return merged
	case *ast.ForStmt:
		if s.Init != nil {
			scratch = w.stmt(s.Init, scratch)
		}
		if s.Cond != nil {
			w.scan(s.Cond, scratch)
		}
		scratch = w.loopBody(s, s.Body, scratch)
	case *ast.RangeStmt:
		w.scan(s.X, scratch)
		scratch = w.loopBody(s, s.Body, scratch)
	case *ast.SwitchStmt:
		if s.Init != nil {
			scratch = w.stmt(s.Init, scratch)
		}
		if s.Tag != nil {
			w.scan(s.Tag, scratch)
		}
		return w.clauses(s.Body, scratch)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body, scratch)
	case *ast.SelectStmt:
		return w.clauses(s.Body, scratch)
	case *ast.SendStmt:
		w.scan(s.Chan, scratch)
		w.scan(s.Value, scratch)
	case *ast.IncDecStmt:
		w.checkWrite(s.X, scratch)
		w.scan(s.X, scratch)
	}
	return scratch
}

// loopBody walks a loop body twice when scratch rooted outside the loop
// survives to the bottom: only the second walk sees scratch from iteration
// N meet iteration N+1's Begin.
func (w *scratchWalker) loopBody(loop ast.Node, body *ast.BlockStmt, scratch scratchSet) scratchSet {
	out := w.block(body.List, scratch.clone())
	back := scratchSet{}
	for obj, info := range out {
		if obj.Pos() < loop.Pos() || obj.Pos() > loop.End() {
			back[obj] = info
		}
	}
	if len(back) > 0 {
		w.block(body.List, back)
	}
	for k, v := range scratch {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func (w *scratchWalker) clauses(body *ast.BlockStmt, scratch scratchSet) scratchSet {
	merged := scratch.clone()
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			stmts = c.Body
		case *ast.CommClause:
			stmts = c.Body
		}
		out := w.block(stmts, scratch.clone())
		for k, v := range out {
			if prev, ok := merged[k]; !ok || (v.stale && !prev.stale) {
				merged[k] = v
			}
		}
	}
	return merged
}

// checkWrite flags element stores through a tracked Residual result: the
// residual is the codec's accumulator, not the caller's.
func (w *scratchWalker) checkWrite(target ast.Expr, scratch scratchSet) {
	idx, ok := unparen(target).(*ast.IndexExpr)
	if !ok {
		return
	}
	obj := baseObject(w.pass.Info, idx.X)
	if obj == nil {
		return
	}
	if info, tracked := scratch[obj]; tracked && info.kind == "Residual" {
		w.reportf(target.Pos(),
			"%s aliases the live error-feedback residual obtained at %s; mutating it breaks conservation (shipped + residual == raw gradient) — the residual is the codec's to update",
			objName(obj), w.pass.Fset.Position(info.pos))
	}
}

// scan inspects one expression for Begin re-plans and stale scratch reads,
// without descending into closure literals.
func (w *scratchWalker) scan(e ast.Expr, scratch scratchSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if stateMethod(w.pass.Info, call) == "Begin" {
				for obj, info := range scratch {
					if !info.stale {
						info.stale = true
						info.beginPos = call.Pos()
						scratch[obj] = info
					}
				}
			}
			return true
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, isVar := w.pass.Info.Uses[id].(*types.Var)
		if !isVar {
			return true
		}
		if info, tracked := scratch[obj]; tracked && info.stale {
			w.reportf(id.Pos(),
				"%s aliases compression scratch obtained at %s and is read after the Begin at %s re-planned the state; Begin overwrites the Recon/residual/frame storage in place — copy it out before the next Begin",
				objName(obj), w.pass.Fset.Position(info.pos), w.pass.Fset.Position(info.beginPos))
		}
		return true
	})
}

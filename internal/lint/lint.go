// Package lint is maltlint: a static-analysis suite that machine-checks the
// invariants MALT's correctness rests on but Go's type system cannot express.
//
// The eleven analyzers (see their files for details):
//
//   - erriscmp: sentinel fabric/dstorm/fault errors must be classified with
//     errors.Is, never == / != / switch — wrapped errors (every fabric error
//     is returned via fmt.Errorf("%w: ...")) make identity comparison a
//     silent misclassification.
//   - lockedscatter: one-sided scatters must not run while a mutex acquired
//     in the same function is still held — the receiver's gather path takes
//     its own locks, and a scatter is a synchronous remote deposit, so
//     holding local locks across it invites deadlock and reintroduces the
//     receiver-CPU involvement one-sided writes exist to avoid.
//   - atomicmix: a struct field is either always accessed through
//     sync/atomic or never — mixing atomic and plain loads/stores is a data
//     race the race detector only catches when the interleaving happens.
//   - foldpurity: gather-fold / OnDeath / liveness-hook closures run
//     concurrently with per-sender queue writes and other hooks; writes to
//     captured variables inside them must be lock-protected.
//   - rawsleep: time.Sleep inside retry/poll loops hides backoff policy
//     from the retry subsystem and turns waits into millisecond polls; only
//     the blessed backoff site (dstorm/retry.go) may sleep raw.
//   - gatherdrop: scatter/gather error results must be handled — a bare
//     call, go/defer statement, or all-blank assignment silently severs the
//     failure detector from the wire errors that feed it.
//   - queuelen: vol.Options{QueueLen: 1} pins a depth-1 receive ring that
//     overwrites all but the newest update per sender; only ablation files
//     (internal/bench/) may do that deliberately.
//   - iterskew: SetIteration arguments must be able to advance — a
//     constant, a `%` wrap, or a top-level subtraction produces an
//     iteration stamp that SSP staleness and update ordering cannot trust.
//   - epochcmp: membership epochs (Epoch()/Generation()) must stay uint64 —
//     narrowing or signing one can resurrect stale-epoch traffic — and must
//     not be captured on one side of a blocking membership operation
//     (Barrier, Join, Rendezvous, ...) and compared on the other, where a
//     death or join may have minted a newer epoch. Blocking is recognized
//     interprocedurally through BlocksFact.
//   - bufretain: a slice handed to the fabric (fabric.Write/WriteBatch, a
//     Scatter, or any callee fact-marked as retaining it) is live until the
//     enclosing Drain/Flush/Barrier — mutating, re-scattering, or returning
//     it in that window lets the transport serialize a torn update.
//   - barrierdiverge: barrier reachability must be rank-symmetric — a
//     barrier (direct or via a fact-marked callee) under a rank-conditional
//     branch with no matching barrier on the other ranks' path, divergent
//     constant barrier names across the branches, or a barrier name computed
//     from the rank are the static signatures of a cross-rank wedge.
//
// The framework is intentionally dependency-free: it mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) — including
// its modular facts architecture (see facts.go) — on top of the standard
// library's go/ast + go/types, because this repository builds without
// third-party modules. Packages are analyzed in dependency order (see
// Runner in engine.go); each analysis both consumes facts about its imports
// and exports facts for its dependents, so interprocedural checks cross
// package boundaries without whole-program analysis. Test variants
// (in-package _test.go files and external _test packages) are loaded and
// analyzed too.
//
// False positives are suppressed with an explicit, audited annotation:
//
//	//maltlint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// placed on the flagged line or the line directly above it. The analyzer
// name "all" suppresses every check for that line. Malformed annotations —
// an unknown analyzer name, or a missing "-- reason" clause — are hard
// maltlint errors and suppress nothing: a silently honored typo would
// disable the very check it names.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow annotations.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run performs the check on one package, reporting findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Message states the violation and the expected fix.
	Message string
	// Analyzer is the name of the analyzer that reported it.
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass connects one analyzer run to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the cross-package fact store shared by the whole run. The
	// built-in facts pass has already populated it for this package and
	// every malt dependency by the time an analyzer runs.
	Facts *FactStore

	reportFiles map[string]bool // nil = report everywhere
	diags       *[]Diagnostic
	allow       allowIndex
}

// ImportObjectFact copies the stored fact of fact's concrete type about obj
// into fact, reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.Facts.Import(obj, fact)
}

// ExportObjectFact records fact about obj for downstream packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.Facts.Export(obj, fact)
}

// Reportf records a finding at pos unless an allow annotation suppresses it
// or the position falls in a file this pass only re-analyzes for context
// (non-test files of a test-variant unit, already reported by the base
// unit's pass).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.reportFiles != nil && !p.reportFiles[position.Filename] {
		return
	}
	if p.allow.allows(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Run applies every analyzer to the package and returns the surviving
// diagnostics sorted by position. facts carries analysis state across
// packages; nil gets a fresh store. The package's own facts are (re)derived
// first, so intra-package interprocedural checks work even in single-package
// runs, and malformed //maltlint:allow annotations are reported as hard
// errors.
func Run(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFactStore()
	}
	ComputeFacts(pkg, facts)
	allow, diags := buildAllowIndex(pkg.Fset, pkg.Files)
	if pkg.ReportFiles != nil {
		kept := diags[:0]
		for _, d := range diags {
			if pkg.ReportFiles[d.Pos.Filename] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			Info:        pkg.Info,
			Facts:       facts,
			reportFiles: pkg.ReportFiles,
			diags:       &diags,
			allow:       allow,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the maltlint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{ErrIsCmp, LockedScatter, AtomicMix, FoldPurity, RawSleep, GatherDrop, QueueLen, IterSkew, EpochCmp, BufRetain, BarrierDiverge, ResFeedback}
}

// analyzerNames returns the set of names an allow annotation may use.
func analyzerNames() map[string]bool {
	names := map[string]bool{"all": true}
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// allowIndex maps file -> line -> analyzer names suppressed on that line.
// An annotation suppresses its own line and the line below it, so both
// trailing comments and own-line comments work.
type allowIndex map[string]map[int]map[string]bool

func (ai allowIndex) allows(pos token.Position, analyzer string) bool {
	lines := ai[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if set := lines[line]; set != nil && (set[analyzer] || set["all"]) {
			return true
		}
	}
	return false
}

const allowPrefix = "//maltlint:allow"

// allowDiagName is the pseudo-analyzer name malformed-annotation errors are
// reported under. It is not itself suppressible.
const allowDiagName = "allow"

// buildAllowIndex parses every //maltlint:allow annotation, returning the
// suppression index plus a hard-error diagnostic for each malformed
// annotation. Only well-formed annotations — every name known, a "--"
// separator, a non-empty reason — suppress anything: a typoed analyzer name
// or a bare allow silently honored would disable the very check it names
// with no audit trail.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	ai := allowIndex{}
	var diags []Diagnostic
	valid := analyzerNames()
	badAllow := func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
			Analyzer: allowDiagName,
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				names, reason, hasReason := strings.Cut(strings.TrimSpace(rest), "--")
				names = strings.TrimSpace(names)
				reason = strings.TrimSpace(reason)
				if names == "" {
					badAllow(pos, "malformed //maltlint:allow: no analyzer names; write `//maltlint:allow <analyzer> -- <reason>`")
					continue
				}
				if !hasReason || reason == "" {
					badAllow(pos, "suppression without an audited reason: `//maltlint:allow %s` is missing the `-- <reason>` clause", names)
					continue
				}
				parsed, bad := []string{}, false
				for _, name := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					if !valid[name] {
						badAllow(pos, "//maltlint:allow names unknown analyzer %q (known: run `maltlint -list`); the suppression is NOT honored", name)
						bad = true
						continue
					}
					parsed = append(parsed, name)
				}
				if bad || len(parsed) == 0 {
					continue
				}
				lines := ai[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					ai[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = map[string]bool{}
					lines[pos.Line] = set
				}
				for _, name := range parsed {
					set[name] = true
				}
			}
		}
	}
	return ai, diags
}

// maltPackage reports whether path is this module or one of its packages.
func maltPackage(path string) bool {
	return path == "malt" || strings.HasPrefix(path, "malt/")
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// funcFor resolves the *types.Func a call expression invokes, or nil for
// calls through function values, built-ins, and conversions.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvTypeName returns the (package path, type name) of a method's receiver,
// dereferencing a pointer receiver; ok is false for non-methods.
func recvTypeName(fn *types.Func) (pkgPath, typeName string, ok bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

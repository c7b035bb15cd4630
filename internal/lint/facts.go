package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// Facts are maltlint's cross-package currency, mirroring the modular facts
// architecture of golang.org/x/tools/go/analysis on the standard library
// alone. A fact is a durable, analyzer-independent statement about a
// package-level object ("this function transitively scatters", "this
// function retains its slice argument past return"), exported while a
// package is analyzed and imported by every downstream package that calls
// into it. Packages are analyzed in dependency order (see Runner), so by
// the time a consumer is checked, every fact about its imports exists.
//
// Where x/tools serializes facts alongside export data, maltlint keys them
// by stable object path (package path + receiver type + name) in an
// in-process store: the whole dependency closure is analyzed in one
// process, and string keys make facts immune to the pointer-identity split
// between source-checked packages and their export-data shadows.
//
// The built-in facts pass (ComputeFacts) runs before the analyzers on each
// package and derives four fact kinds bottom-up from a deliberately tiny
// intrinsic root set — the fabric write primitives and the documented
// scatter/blocking surface. Everything else, from dstorm.Segment.Scatter
// up through core.Context.Scatter, is derived, not hand-listed.

// A Fact is a durable statement about a package-level object. Concrete
// fact types are pointer-to-struct so ImportObjectFact can fill them in.
type Fact interface{ AFact() }

// ScattersFact marks a function that performs a one-sided scatter/write,
// directly or through any chain of callees. lockedscatter uses it to see a
// scatter two calls deep under a mutex; bufretain uses it to recognize
// re-scatters of a donated buffer.
type ScattersFact struct {
	// Via is the callee that made this function a scatterer — one step of
	// the derivation chain, for diagnostics.
	Via string
}

func (*ScattersFact) AFact() {}

func (f *ScattersFact) String() string { return "scatters(via " + f.Via + ")" }

// BlocksFact marks a function that can park its caller in a blocking
// membership operation (Barrier, Join, Gather, Drain, ...) — a window in
// which a death or join may mint a new membership epoch. epochcmp uses it
// to spot epoch comparisons that straddle such a call interprocedurally.
type BlocksFact struct {
	Via string
}

func (*BlocksFact) AFact() {}

func (f *BlocksFact) String() string { return "blocks(via " + f.Via + ")" }

// BarriersFact marks a function that transitively reaches a cluster
// barrier, with the constant barrier names observed on the way (empty for
// unnamed or dynamic names). barrierdiverge uses it to flag rank-conditional
// code that wedges some ranks in a barrier others never enter.
type BarriersFact struct {
	// Names are the constant barrier name literals reachable through this
	// function, sorted and deduplicated.
	Names []string
	Via   string
}

func (*BarriersFact) AFact() {}

func (f *BarriersFact) String() string { return fmt.Sprintf("barriers(%v via %s)", f.Names, f.Via) }

// RetainsFact marks a function that retains one or more of its slice
// parameters past return: the argument reaches the fabric (which may
// serialize it asynchronously under the one-sided contract) or is stored
// somewhere that outlives the call. bufretain treats passing a buffer to a
// retaining parameter exactly like passing it to fabric.Write.
type RetainsFact struct {
	// Params are the 0-based indices (receiver excluded) of the retained
	// slice parameters, sorted.
	Params []int
}

func (*RetainsFact) AFact() {}

func (f *RetainsFact) String() string { return fmt.Sprintf("retains(params %v)", f.Params) }

// ObjectKey returns the stable cross-package key for a package-level
// object: "pkgpath.Name" for functions and package-scope objects,
// "pkgpath.Type.Name" for methods. ok is false for objects facts cannot
// attach to (locals, closures, objects without a package).
func ObjectKey(obj types.Object) (key string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, isFn := obj.(*types.Func); isFn {
		if pkgPath, typeName, isMethod := recvTypeName(fn); isMethod {
			return pkgPath + "." + typeName + "." + fn.Name(), true
		}
		return fn.Pkg().Path() + "." + fn.Name(), true
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Path() + "." + obj.Name(), true
	}
	return "", false
}

// A FactStore holds every fact exported so far, keyed by (object key, fact
// type). One store spans an entire Runner run; linttest shares one across
// all fixtures so fixture packages see facts about the real malt packages.
type FactStore struct {
	mu sync.RWMutex
	m  map[storeKey]Fact
}

type storeKey struct {
	obj string
	typ reflect.Type
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[storeKey]Fact{}}
}

// ExportKey records fact for the object key, merging with any previous
// fact of the same type, and reports whether the stored value changed —
// the fixed point in ComputeFacts iterates until no export changes
// anything. The merge must be monotone (information only accumulates) or
// the fixed point would not terminate: several declarations can share one
// key (every `func init()` in a package does), and if each overwrote the
// other's Via the store would flip forever.
func (s *FactStore) ExportKey(key string, fact Fact) bool {
	k := storeKey{key, reflect.TypeOf(fact)}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.m[k]
	if !ok {
		s.m[k] = fact
		return true
	}
	merged, changed := mergeFacts(prev, fact)
	if changed {
		s.m[k] = merged
	}
	return changed
}

// mergeFacts folds next into prev monotonically. Existence facts
// (ScattersFact, BlocksFact) never change once present — Via is advisory,
// and the first derivation keeps it. Set-valued facts (BarriersFact names,
// RetainsFact params) grow by union and never shrink.
func mergeFacts(prev, next Fact) (Fact, bool) {
	switch p := prev.(type) {
	case *ScattersFact, *BlocksFact:
		return prev, false
	case *BarriersFact:
		n := next.(*BarriersFact)
		union, grew := unionSorted(p.Names, n.Names)
		if !grew {
			return prev, false
		}
		return &BarriersFact{Names: union, Via: p.Via}, true
	case *RetainsFact:
		n := next.(*RetainsFact)
		union, grew := unionSortedInts(p.Params, n.Params)
		if !grew {
			return prev, false
		}
		return &RetainsFact{Params: union}, true
	}
	if reflect.DeepEqual(prev, next) {
		return prev, false
	}
	return next, true
}

// unionSorted merges two sorted string slices, reporting whether the
// union exceeds a.
func unionSorted(a, b []string) ([]string, bool) {
	set := map[string]bool{}
	for _, s := range a {
		set[s] = true
	}
	grew := false
	for _, s := range b {
		if !set[s] {
			set[s] = true
			grew = true
		}
	}
	if !grew {
		return a, false
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, true
}

func unionSortedInts(a, b []int) ([]int, bool) {
	set := map[int]bool{}
	for _, v := range a {
		set[v] = true
	}
	grew := false
	for _, v := range b {
		if !set[v] {
			set[v] = true
			grew = true
		}
	}
	if !grew {
		return a, false
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out, true
}

// ImportKey copies the stored fact of fact's type for the object key into
// fact, reporting whether one existed.
func (s *FactStore) ImportKey(key string, fact Fact) bool {
	k := storeKey{key, reflect.TypeOf(fact)}
	s.mu.RLock()
	stored, ok := s.m[k]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// Export records fact for obj when obj has a stable key.
func (s *FactStore) Export(obj types.Object, fact Fact) bool {
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	return s.ExportKey(key, fact)
}

// Import copies the stored fact of fact's type for obj into fact.
func (s *FactStore) Import(obj types.Object, fact Fact) bool {
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	return s.ImportKey(key, fact)
}

// Len returns the number of stored facts.
func (s *FactStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Keys returns the sorted object keys carrying a fact of fact's concrete
// type — introspection for tests and debugging.
func (s *FactStore) Keys(fact Fact) []string {
	typ := reflect.TypeOf(fact)
	s.mu.RLock()
	var keys []string
	for k := range s.m {
		if k.typ == typ {
			keys = append(keys, k.obj)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// scatterIntrinsics are the root one-sided write primitives, keyed
// "pkgpath.Type.Method". Only the fabric layer is listed: every scatter in
// the module bottoms out in one of these, and the facts pass derives the
// rest (dstorm's funnels, vol's vectors, core's context) transitively.
var scatterIntrinsics = map[string]bool{
	"malt/internal/fabric.Fabric.Write":         true,
	"malt/internal/fabric.Fabric.WriteBatch":    true,
	"malt/internal/fabric.Transport.Write":      true,
	"malt/internal/fabric.Transport.WriteBatch": true,
}

// retainIntrinsics declare the 0-based parameter indices (receiver
// excluded) that the one-sided contract donates to the transport: the
// fabric primitives' payload, and the documented public scatter surface.
// The dstorm entries are contract statements, not implementation facts —
// today's Segment.Scatter copies into an encode buffer under its mutex,
// but the contract (like a real RDMA post) does not promise a copy, so
// callers must treat the buffer as live until drained.
var retainIntrinsics = map[string][]int{
	"malt/internal/fabric.Fabric.Write":         {3},
	"malt/internal/fabric.Fabric.WriteBatch":    {3},
	"malt/internal/fabric.Transport.Write":      {3},
	"malt/internal/fabric.Transport.WriteBatch": {3},
	"malt/internal/dstorm.Segment.Scatter":      {0},
	"malt/internal/dstorm.Segment.ScatterTo":    {1},
	"malt/internal/dstorm.AddSegment.Scatter":   {0},
	"malt/internal/dstorm.Node.writeWithRetry":  {2},
	"malt/internal/dstorm.Node.writeMulti":      {2},
}

// blockingNames are method names that can span a death or a join (and
// therefore an epoch mint) when invoked on a malt type — the root set for
// BlocksFact derivation and epochcmp's direct check.
var blockingNames = map[string]bool{
	"Barrier": true, "Advance": true, "Drain": true, "Wait": true,
	"Gather": true, "GatherLatest": true, "Commit": true,
	"Rendezvous": true, "Join": true,
}

// barrierNames are the method/function names that enter a cluster barrier
// when defined in a malt package.
var barrierNames = map[string]bool{
	"Barrier": true, "creationBarrier": true,
}

// scattersFn reports whether a resolved callee scatters: an intrinsic
// primitive, or a function carrying a ScattersFact.
func scattersFn(fn *types.Func, store *FactStore) (via string, ok bool) {
	key, keyed := ObjectKey(fn)
	if !keyed {
		return "", false
	}
	if scatterIntrinsics[key] {
		return key, true
	}
	var f ScattersFact
	if store != nil && store.ImportKey(key, &f) {
		return key, true
	}
	return "", false
}

// retainedParams returns the parameter indices a resolved callee retains:
// intrinsic contract positions plus any RetainsFact.
func retainedParams(fn *types.Func, store *FactStore) []int {
	key, keyed := ObjectKey(fn)
	if !keyed {
		return nil
	}
	if idx, ok := retainIntrinsics[key]; ok {
		return idx
	}
	var f RetainsFact
	if store != nil && store.ImportKey(key, &f) {
		return f.Params
	}
	return nil
}

// blocksFn reports whether a resolved callee can block on membership: a
// blessed blocking method name on a malt type, or a BlocksFact carrier.
func blocksFn(fn *types.Func, store *FactStore) (via string, ok bool) {
	if blockingNames[fn.Name()] {
		if pkgPath, _, isMethod := recvTypeName(fn); isMethod && maltPackage(pkgPath) {
			key, _ := ObjectKey(fn)
			return key, true
		}
	}
	key, keyed := ObjectKey(fn)
	if !keyed {
		return "", false
	}
	var f BlocksFact
	if store != nil && store.ImportKey(key, &f) {
		return key, true
	}
	return "", false
}

// barriersFn reports whether a resolved callee reaches a cluster barrier,
// returning the constant barrier names known for it.
func barriersFn(fn *types.Func, store *FactStore) (names []string, via string, ok bool) {
	if barrierNames[fn.Name()] && fn.Pkg() != nil && maltPackage(fn.Pkg().Path()) {
		key, _ := ObjectKey(fn)
		return nil, key, true
	}
	key, keyed := ObjectKey(fn)
	if !keyed {
		return nil, "", false
	}
	var f BarriersFact
	if store != nil && store.ImportKey(key, &f) {
		return f.Names, key, true
	}
	return nil, "", false
}

// ComputeFacts runs the built-in facts pass over one package: every
// function declaration is scanned for scatter/blocking/barrier reachability
// and slice-parameter retention, iterating to a fixed point so that chains
// inside the package (a calls b calls fabric.Write) resolve regardless of
// declaration order. Cross-package chains resolve because the Runner calls
// this in dependency order, so callee facts are already in the store.
func ComputeFacts(pkg *Package, store *FactStore) {
	for changed := true; changed; {
		changed = false
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, isFn := pkg.Info.Defs[fd.Name].(*types.Func)
				if !isFn {
					continue
				}
				if computeFuncFacts(pkg, store, fd, obj) {
					changed = true
				}
			}
		}
	}
}

// computeFuncFacts derives and exports facts for one function declaration,
// reporting whether anything in the store changed.
func computeFuncFacts(pkg *Package, store *FactStore, fd *ast.FuncDecl, obj *types.Func) bool {
	var (
		scatVia, blockVia, barVia string
		scatters, blocks, barrier bool
		barNameSet                = map[string]bool{}
	)
	// Reachability scan: closure bodies are included (a closure passed to a
	// helper usually runs on the caller's chain) except when launched on
	// their own goroutine or deferred — those run outside this call's
	// critical path.
	inspectSkippingAsync(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := funcFor(pkg.Info, call)
		if fn == nil || fn == obj {
			return
		}
		if !scatters {
			if via, ok := scattersFn(fn, store); ok {
				scatters, scatVia = true, via
			}
		}
		if !blocks {
			if via, ok := blocksFn(fn, store); ok {
				blocks, blockVia = true, via
			}
		}
		if names, via, ok := barriersFn(fn, store); ok {
			if !barrier {
				barrier, barVia = true, via
			}
			for _, nm := range names {
				barNameSet[nm] = true
			}
			if nm, ok := constStringArg(pkg.Info, call, 0); ok && barrierNames[fn.Name()] {
				barNameSet[nm] = true
			}
		}
	})
	retained := retainedParamsOf(pkg, store, fd, obj)

	changed := false
	if scatters && store.Export(obj, &ScattersFact{Via: scatVia}) {
		changed = true
	}
	if blocks && store.Export(obj, &BlocksFact{Via: blockVia}) {
		changed = true
	}
	if barrier {
		names := make([]string, 0, len(barNameSet))
		for nm := range barNameSet {
			names = append(names, nm)
		}
		sort.Strings(names)
		if store.Export(obj, &BarriersFact{Names: names, Via: barVia}) {
			changed = true
		}
	}
	if len(retained) > 0 && store.Export(obj, &RetainsFact{Params: retained}) {
		changed = true
	}
	return changed
}

// retainedParamsOf finds the slice parameters of fd that flow past return:
// into a retaining callee position, a store whose base outlives the call
// (package var, field, element of a non-local), or a channel send. All
// closure bodies are scanned — a parameter captured by a registered
// callback outlives the call no matter which goroutine runs it. Returning
// the parameter is deliberately not counted: ownership passes back to the
// caller, which sees the value flow.
func retainedParamsOf(pkg *Package, store *FactStore, fd *ast.FuncDecl, obj *types.Func) []int {
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	paramIdx := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if _, isSlice := p.Type().Underlying().(*types.Slice); isSlice && p.Name() != "" && p.Name() != "_" {
			paramIdx[p] = i
		}
	}
	if len(paramIdx) == 0 {
		return nil
	}
	retained := map[int]bool{}
	paramOf := func(e ast.Expr) (int, bool) {
		e = unparen(e)
		if sl, ok := e.(*ast.SliceExpr); ok {
			e = unparen(sl.X)
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return 0, false
		}
		idx, ok := paramIdx[pkg.Info.ObjectOf(id)]
		return idx, ok
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if idx, ok := paramOf(rhs); ok && lhsOutlives(pkg, fd, n.Lhs[i]) {
					retained[idx] = true
				}
			}
		case *ast.SendStmt:
			if idx, ok := paramOf(n.Value); ok {
				retained[idx] = true
			}
		case *ast.CallExpr:
			fn := funcFor(pkg.Info, n)
			if fn == nil || fn == obj {
				return true
			}
			for _, j := range retainedParams(fn, store) {
				if j < len(n.Args) {
					if idx, ok := paramOf(n.Args[j]); ok {
						retained[idx] = true
					}
				}
			}
		}
		return true
	})
	out := make([]int, 0, len(retained))
	for i := range retained {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// lhsOutlives reports whether an assignment target's storage outlives the
// enclosing function call: a field or element of anything (conservative —
// the container may escape), or a variable not declared inside fd.
func lhsOutlives(pkg *Package, fd *ast.FuncDecl, lhs ast.Expr) bool {
	e := unparen(lhs)
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			return true
		case *ast.IndexExpr:
			e = unparen(t.X)
		case *ast.StarExpr:
			e = unparen(t.X)
		default:
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				return false
			}
			obj := pkg.Info.ObjectOf(id)
			if obj == nil {
				return false
			}
			return obj.Pos() < fd.Pos() || obj.Pos() > fd.End()
		}
	}
}

// inspectSkippingAsync walks body like ast.Inspect but skips function
// literals that are the direct target of a go or defer statement: their
// bodies run outside the enclosing call's chain.
func inspectSkippingAsync(body ast.Node, visit func(ast.Node)) {
	skip := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
				skip[lit] = true
			}
		case *ast.DeferStmt:
			if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
				skip[lit] = true
			}
		}
		if skip[n] {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// constStringArg returns the constant string value of call's i-th argument
// when it has one.
func constStringArg(info *types.Info, call *ast.CallExpr, i int) (string, bool) {
	if i >= len(call.Args) {
		return "", false
	}
	tv, ok := info.Types[call.Args[i]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The determinism analyzer. Byte-identical traces across the whole
// (propose × apply) worker grid are the repo's load-bearing invariant;
// the two classic ways to lose them silently are iterating a Go map in an
// order-sensitive way (map iteration order is randomized per run) and
// drawing from an ambient source — wall clock, process-global RNG,
// environment — instead of the engine's seeded streams.
//
// In trace-affecting packages the analyzer flags:
//
//   - `for ... range m` over a map whose body does order-sensitive work.
//     Order-insensitive bodies pass: integer accumulation (x++, x += n),
//     constant flag sets, map-index writes, delete, and local declarations.
//     Appending to an outer slice passes only when a statement after the
//     loop sorts that slice (the collect-then-sort idiom: gather the keys,
//     sort them, then act in that order); anything else — calls, channel
//     sends, float accumulation, overwriting outer variables, returning —
//     is flagged.
//   - calls to time.Now / time.Since / time.Until, to package-level
//     math/rand (and v2) functions, and to os.Getenv / os.LookupEnv /
//     os.Environ. Node-scoped draws come from n.RNG; wall-clock reads that
//     never reach the trace (the stats phase timings) carry a waiver.

// tracePackageFragments marks the packages whose code can reach an engine
// trace: the engine itself, every bundled protocol family, and the
// scenario compiler/runner.
var tracePackageFragments = []string{
	"internal/sim",
	"internal/gossip",
	"internal/overlay",
	"internal/core",
	"internal/scenario",
}

// Determinism flags order-sensitive map iteration and ambient
// nondeterminism sources (wall clock, global RNG, environment) in
// trace-affecting packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flags order-sensitive map iteration and ambient nondeterminism " +
		"(time.Now, global math/rand, os.Getenv) in trace-affecting packages",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !pkgPathContains(pass.Pkg.Path(), tracePackageFragments...) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkAmbientCall(pass, n)
			case *ast.BlockStmt:
				checkBlockRanges(pass, n.List)
			case *ast.CaseClause:
				checkBlockRanges(pass, n.Body)
			case *ast.CommClause:
				checkBlockRanges(pass, n.Body)
			}
			return true
		})
	}
}

// ambientFuncs lists the banned ambient sources per package.
var ambientFuncs = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"os":   {"Getenv": true, "LookupEnv": true, "Environ": true},
}

// checkAmbientCall flags wall-clock, environment, and process-global RNG
// calls.
func checkAmbientCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if banned, ok := ambientFuncs[path]; ok && banned[fn.Name()] {
		pass.Reportf(call.Pos(), "call to %s.%s in a trace-affecting package: ambient inputs break run-to-run determinism", path, fn.Name())
		return
	}
	if path == "math/rand" || path == "math/rand/v2" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			pass.Reportf(call.Pos(), "call to process-global %s.%s in a trace-affecting package: draw from the engine or node RNG stream instead", path, fn.Name())
		}
	}
}

// checkBlockRanges examines every map-range statement of a statement list,
// with the list's tail available for collect-then-sort detection.
func checkBlockRanges(pass *Pass, stmts []ast.Stmt) {
	for i, s := range stmts {
		rng, ok := s.(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok || !isMapType(tv.Type) {
			continue
		}
		checkMapRange(pass, rng, stmts[i+1:])
	}
}

// checkMapRange classifies one map-range body and reports it unless every
// statement is order-insensitive (appends excepted when a later statement
// in the same block sorts the collected slice).
func checkMapRange(pass *Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	c := &rangeClassifier{pass: pass, rng: rng}
	c.classifyStmts(rng.Body.List)
	if c.reported {
		return
	}
	for _, target := range c.appendTargets {
		if !sortedAfter(pass, target, rest) {
			pass.Reportf(rng.Pos(), "map iteration appends to %q in map order without a subsequent sort: collect, sort, then act (map order is randomized per run)", target.Name())
			return
		}
	}
}

// rangeClassifier walks a map-range body collecting order-sensitivity
// verdicts. It reports at most one diagnostic per range statement (the
// first order-sensitive statement found) to keep the output reviewable.
type rangeClassifier struct {
	pass          *Pass
	rng           *ast.RangeStmt
	appendTargets []*types.Var
	reported      bool
}

// flag reports the range statement once, anchored at the offending
// statement.
func (c *rangeClassifier) flag(pos token.Pos, why string) {
	if c.reported {
		return
	}
	c.reported = true
	c.pass.Reportf(pos, "order-sensitive statement in map iteration (%s): map order is randomized per run; iterate sorted keys or make the body commutative", why)
}

func (c *rangeClassifier) classifyStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		c.classifyStmt(s)
		if c.reported {
			return
		}
	}
}

// localTo reports whether the identifier's object is declared inside the
// range statement — the Key/Value variables of the range clause included
// (per-iteration state is invisible outside and always safe to write).
func (c *rangeClassifier) localTo(id *ast.Ident) bool {
	obj := c.pass.Info.Defs[id]
	if obj == nil {
		obj = c.pass.Info.Uses[id]
	}
	return obj != nil && obj.Pos() >= c.rng.Pos() && obj.Pos() <= c.rng.Body.End()
}

// classifyStmt dispatches one statement of the loop body.
func (c *rangeClassifier) classifyStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.BranchStmt, *ast.EmptyStmt, *ast.DeclStmt:
		// Local declarations and control flow carry no cross-iteration
		// state.
	case *ast.IncDecStmt:
		// x++ / x-- add a constant per element: the same multiset of
		// updates in any order yields the same value.
	case *ast.AssignStmt:
		c.classifyAssign(s)
	case *ast.ExprStmt:
		c.classifyCallStmt(s)
	case *ast.IfStmt:
		c.classifyCond(s.Cond)
		if s.Init != nil {
			c.classifyStmt(s.Init)
		}
		c.classifyStmts(s.Body.List)
		if s.Else != nil {
			c.classifyStmt(s.Else)
		}
	case *ast.BlockStmt:
		c.classifyStmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			c.classifyStmt(s.Init)
		}
		if s.Cond != nil {
			c.classifyCond(s.Cond)
		}
		if s.Post != nil {
			c.classifyStmt(s.Post)
		}
		c.classifyStmts(s.Body.List)
	case *ast.RangeStmt:
		// A nested range shares the outer loop's constraints; a nested
		// *map* range is additionally checked on its own by the outer
		// walk.
		c.classifyStmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.classifyStmt(s.Init)
		}
		if s.Tag != nil {
			c.classifyCond(s.Tag)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.classifyStmts(cl.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.classifyStmts(cl.Body)
			}
		}
	default:
		// return, send, go, defer, select, labeled...: all leak iteration
		// order (which element returned first, channel message order, ...).
		c.flag(s.Pos(), "statement kind leaks iteration order")
	}
}

// classifyCond flags conditions that call non-builtin functions (a call
// may mutate state in iteration order); pure reads are always safe.
func (c *rangeClassifier) classifyCond(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if calleeBuiltin(c.pass.Info, call) == "" && !isConversion(c.pass.Info, call) {
				c.flag(call.Pos(), "function call inside condition may observe iteration order")
				return false
			}
		}
		return true
	})
}

// classifyCallStmt handles a bare call statement: delete is set-semantics
// safe, everything else can observe iteration order.
func (c *rangeClassifier) classifyCallStmt(s *ast.ExprStmt) {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		c.flag(s.Pos(), "expression statement")
		return
	}
	switch calleeBuiltin(c.pass.Info, call) {
	case "delete", "clear", "print", "println", "panic":
		// delete/clear are per-key set operations; print/panic are debug
		// paths that never reach a trace.
		return
	}
	c.flag(call.Pos(), "call may act in iteration order")
}

// classifyAssign judges one assignment inside the loop body.
func (c *rangeClassifier) classifyAssign(s *ast.AssignStmt) {
	if s.Tok == token.DEFINE {
		return // fresh per-iteration locals
	}
	// Compound numeric accumulation: integer +=/-=/*=/|=/&=/^=/&^= is
	// commutative and associative, so element order cannot change the
	// result. Float (and string) accumulation is order-dependent.
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
		for _, lhs := range s.Lhs {
			if tv, ok := c.pass.Info.Types[lhs]; !ok || !isIntegerType(tv.Type) {
				c.flag(s.Pos(), "non-integer accumulation is order-dependent")
				return
			}
		}
		return
	case token.SHL_ASSIGN, token.SHR_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
		c.flag(s.Pos(), "non-commutative accumulation")
		return
	}

	// Plain assignment: judge each LHS.
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		}
		c.classifyStore(s, lhs, rhs)
		if c.reported {
			return
		}
	}
}

// classifyStore judges one plain `lhs = rhs` store.
func (c *rangeClassifier) classifyStore(s *ast.AssignStmt, lhs, rhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" || c.localTo(id) {
			return
		}
		// Append to an outer slice: allowed when sorted after the loop
		// (checked by the caller); anything else overwrites outer state in
		// iteration order — except a constant store, which is idempotent
		// (`found = true`).
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && calleeBuiltin(c.pass.Info, call) == "append" {
			if target := rootIdent(ast.Unparen(call.Args[0])); target != nil {
				if obj, ok := c.pass.Info.Uses[target].(*types.Var); ok && obj == c.pass.Info.Uses[id] {
					c.appendTargets = append(c.appendTargets, obj)
					return
				}
			}
		}
		if rhs != nil {
			if tv, ok := c.pass.Info.Types[rhs]; ok && tv.Value != nil {
				return // constant store: idempotent across iterations
			}
		}
		c.flag(s.Pos(), "last-iteration-wins write to outer variable "+id.Name)
		return
	}
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if tv, ok := c.pass.Info.Types[ix.X]; ok && isMapType(tv.Type) {
			return // per-key map store: set semantics
		}
	}
	if root := rootIdent(lhs); root != nil && c.localTo(root) {
		return
	}
	c.flag(s.Pos(), "write through non-local reference")
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// sortedAfter reports whether a statement in rest sorts the given slice
// variable: sort.Slice / sort.Sort / sort.Ints / ... or any slices.Sort*
// call mentioning the variable.
func sortedAfter(pass *Pass, target *types.Var, rest []ast.Stmt) bool {
	for _, s := range rest {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || !isSortFunc(fn) {
			continue
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == target {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				return true
			}
		}
	}
	return false
}

// isSortFunc recognizes the sorting entry points of sort and slices.
func isSortFunc(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Sort", "Stable", "Ints", "Strings", "Float64s":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

// Package streamdiscipline defines an analyzer that enforces the RNG
// stream discipline the scalar/batch differential harness depends on:
// both engines must consume draws from the same streams, in the same
// order, under the same conditions, or replicate results silently
// diverge.
//
// Since per-ant draws became keyed, few streams remain: the matcher's
// matchSrc (one word per round), the fault and adversary streams, and the
// scratch Sources a lane reseeds from an ant's keyed word before each
// perception-hook call. Four rules police them:
//
//	SD1 — in //hh:hotpath functions, a draw call (any rng.Source /
//	      rng.Threshold draw method, or any call handing a *rng.Source to
//	      a hook) nested under an if statement is flagged unless every
//	      enclosing condition is a documented draw-free sentinel (the
//	      identifiers in Sentinels, or a nil comparison — nil hooks are
//	      draw-free by contract), or the if is annotated //hh:draws <why>
//	      documenting that the scalar path draws under the identical
//	      condition.
//
//	SD2 — inside loops ranging over state buckets (an expression rooted
//	      at an identifier containing "bkt", "bucket", or "members"),
//	      every draw must come from a Source reseeded earlier in the same
//	      loop body (src.Reseed, or key.ReseedAnt(src, …), which seeds a
//	      scratch Source from the ant's keyed word), or go to a function
//	      of the package that reseeds the Source parameter it is handed
//	      before each draw from it (in the same block or an enclosing
//	      one) and uses it only to reseed and draw; a draw from any other
//	      stream consumes in bucket order, not ant order, and is flagged
//	      unless the range is annotated //hh:antorder <why>.
//
//	SD3 — every Emit*/Observe* opcode constant (type EmitOp/ObserveOp)
//	      must carry a //hh:draws <spec> scalar=<name> contract naming
//	      its per-round draws and the scalar counterpart that makes the
//	      identical draws.
//
//	SD4 — a //hh:hotpath function that performs draws must carry a
//	      //hh:draws <spec> doc contract summarizing its draw order.
//
// Keyed draws (rng.Key.AntWord and AntRow, rng.Key.AntIntn,
// rng.KeyedUint64n, rng.KeyedDraws32) are outside all four rules: each
// value is a pure function of its key and counters and consumes no stream,
// so a keyed draw may be guarded, reordered, sharded, skipped or made ahead
// of need without moving any other draw. Every per-ant draw and search
// destination of both engines is keyed, and so are the Algorithm 1
// matcher's targets: it takes one key word per call from the matching
// stream, shuffles its candidates on a local stream seeded by the key, and
// keys every target. What remains policed there is the one key draw.
//
// The rng package itself is exempt: discipline governs consumers.
package streamdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/gmrl/househunt/internal/lint/analysis"
	"github.com/gmrl/househunt/internal/lint/hhannot"
)

// Sentinels are the documented draw-free guard identifiers: conditions on
// these values gate draws identically in the scalar and batch engines (see
// README.md "Stream discipline"). active is a matcher's recruit-bit column,
// which both engines hand it identically; nR is the recruiting-slot count
// both engines skip the matcher on when it is zero; ThresholdNever is the
// fixed-point bound that rejects without drawing. An ant's own guards (its
// quality register, its active flag) gate keyed words, which no rule
// polices, so they are not sentinels.
var Sentinels = map[string]bool{
	"active":         true,
	"nR":             true,
	"ThresholdNever": true,
}

// drawMethods are the rng.Source methods that advance the stream.
// Split/SplitInto/Reseed derive or seed streams without consuming the
// parent's draw sequence and are deliberately absent, as are the keyed
// draws, which are not Source methods and consume no stream. Key draws
// the stream's next word as a key, so it counts as a draw.
var drawMethods = map[string]bool{
	"Uint64": true, "Uint64n": true, "Intn": true,
	"Float64": true, "Bernoulli": true, "PermInto32": true,
	"Shuffle": true, "Shuffle32": true,
	"Binomial": true, "NormFloat64": true, "Key": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "streamdiscipline",
	Doc:  "enforce scalar/batch RNG draw-order discipline (guarded draws, ant order, opcode draw contracts)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "rng" {
		return nil
	}
	annots := hhannot.NewMap(pass.Fset, pass.Files)
	rs := &reseeders{pass: pass, decls: map[*types.Func]*ast.FuncDecl{}, clean: map[types.Object]bool{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					rs.decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		checkOpcodeContracts(pass, annots, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hhannot.DocHas(fd.Doc, "hotpath") {
				continue
			}
			checkHotFunc(pass, annots, rs, fd)
		}
	}
	return nil
}

// bucketLoop is one enclosing bucket-order range and the Sources reseeded
// so far in its body, by expression.
type bucketLoop struct {
	rng      *ast.RangeStmt
	reseeded map[string]bool
}

// checkHotFunc walks one hot function tracking the enclosing if and
// bucket-range context, applying SD1, SD2, and SD4.
func checkHotFunc(pass *analysis.Pass, annots *hhannot.Map, rs *reseeders, fd *ast.FuncDecl) {
	drew := false
	var walk func(n ast.Node, ifs []*ast.IfStmt, buckets []*bucketLoop)
	walk = func(n ast.Node, ifs []*ast.IfStmt, buckets []*bucketLoop) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.IfStmt:
			if n.Init != nil {
				walk(n.Init, ifs, buckets)
			}
			// The condition executes unconditionally relative to this
			// if, so draws inside it are guarded only by the outer ifs.
			walk(n.Cond, ifs, buckets)
			inner := append(ifs, n)
			walk(n.Body, inner, buckets)
			walk(n.Else, inner, buckets)
			return
		case *ast.RangeStmt:
			inner := buckets
			if isBucketRange(n) {
				inner = append(buckets, &bucketLoop{rng: n, reseeded: map[string]bool{}})
			}
			walk(n.Body, ifs, inner)
			return
		case *ast.FuncLit:
			// A nested function body has its own control flow; draws in
			// it (e.g. Shuffle swap callbacks) execute at call sites.
			walk(n.Body, nil, nil)
			return
		case *ast.CallExpr:
			if recv, ok := reseedCall(pass, n); ok && len(buckets) > 0 {
				buckets[len(buckets)-1].reseeded[types.ExprString(recv)] = true
			}
			if recv, ok := drawCall(pass, n); ok {
				drew = true
				checkGuards(pass, annots, n, ifs)
				checkAntOrder(pass, annots, rs, n, recv, buckets)
			}
		}
		// Generic traversal of children, preserving context.
		children(n, func(c ast.Node) { walk(c, ifs, buckets) })
	}
	walk(fd.Body, nil, nil)

	if drew && !hhannot.DocHas(fd.Doc, "draws") {
		pass.Reportf(fd.Name.Pos(), "//hh:hotpath function %s draws from rng but its doc comment has no //hh:draws contract", fd.Name.Name)
	}
}

// checkGuards is SD1: every enclosing if must be sentinel-guarded,
// nil-guarded, or annotated.
func checkGuards(pass *analysis.Pass, annots *hhannot.Map, call *ast.CallExpr, ifs []*ast.IfStmt) {
	for _, ifStmt := range ifs {
		if guardJustified(pass, annots, ifStmt) {
			continue
		}
		pos := pass.Fset.Position(ifStmt.Pos())
		pass.Reportf(call.Pos(), "draw guarded by undocumented condition at line %d: scalar and batch must gate draws on the same documented sentinel (or annotate the if with //hh:draws <why>)", pos.Line)
	}
}

func guardJustified(pass *analysis.Pass, annots *hhannot.Map, ifStmt *ast.IfStmt) bool {
	if annots.Has(ifStmt, "draws") {
		return true
	}
	ok := false
	ast.Inspect(ifStmt.Cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if Sentinels[n.Name] {
				ok = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				if isNilIdent(n.X) || isNilIdent(n.Y) {
					ok = true
				}
			}
		}
		return !ok
	})
	return ok
}

// checkAntOrder is SD2: in bucket-order loops, draws must come from a
// Source reseeded earlier in the loop body, or go to a callee that reseeds
// the Source it is handed before drawing from it.
func checkAntOrder(pass *analysis.Pass, annots *hhannot.Map, rs *reseeders, call *ast.CallExpr, recv ast.Expr, buckets []*bucketLoop) {
	if len(buckets) == 0 || recv == nil {
		return
	}
	loop := buckets[len(buckets)-1]
	if loop.reseeded[types.ExprString(recv)] || annots.Has(loop.rng, "antorder") || rs.reseedsArg(call, recv) {
		return
	}
	pass.Reportf(call.Pos(), "stream draw inside a bucket-order loop consumes draws out of ant order; reseed the Source from the ant's keyed word first, or annotate the range //hh:antorder <why>")
}

// reseeders answers SD2's question about a call that hands a Source to a
// function of the package: does the callee reseed that parameter before it
// draws from it? Answers are memoized per parameter.
type reseeders struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	clean map[types.Object]bool
}

// reseedsArg reports whether call hands arg to a package function whose
// matching parameter is reseeded before every draw from it.
func (rs *reseeders) reseedsArg(call *ast.CallExpr, arg ast.Expr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, _ := rs.pass.TypesInfo.Uses[id].(*types.Func)
	fd := rs.decls[fn]
	if fd == nil {
		return false
	}
	var params []*ast.Ident
	for _, field := range fd.Type.Params.List {
		params = append(params, field.Names...)
	}
	for j, a := range call.Args {
		if a == arg && j < len(params) {
			return rs.reseedsParam(fd, rs.pass.TypesInfo.Defs[params[j]])
		}
	}
	return false
}

// reseedsParam reports whether every draw from param in fd's body follows a
// reseed of it earlier in the same block or an enclosing one: a reseed
// inside a branch covers only the draws in that branch. Every use of param
// must be such a reseed or draw; any other use — inside a closure, copied
// to a variable, stored or returned — could draw unseen, so it makes the
// callee unclean.
func (rs *reseeders) reseedsParam(fd *ast.FuncDecl, param types.Object) bool {
	if param == nil {
		return false
	}
	if ok, seen := rs.clean[param]; seen {
		return ok
	}
	rs.clean[param] = false // a recursive call reaching here is not clean
	// accounted holds the uses of param that are a reseed or a draw.
	accounted := map[*ast.Ident]bool{}
	isParam := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if ok && rs.pass.TypesInfo.Uses[id] == param {
			accounted[id] = true
			return true
		}
		return false
	}
	clean := true
	var walk func(n ast.Node, reseeded *bool)
	walk = func(n ast.Node, reseeded *bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			scoped := *reseeded
			children(n, func(c ast.Node) { walk(c, &scoped) })
			return
		case *ast.FuncLit:
			return
		case *ast.CallExpr:
			children(n, func(c ast.Node) { walk(c, reseeded) })
			if recv, ok := reseedCall(rs.pass, n); ok {
				if isParam(recv) {
					*reseeded = true
				}
				return
			}
			if recv, ok := drawCall(rs.pass, n); ok && isParam(recv) && !*reseeded && !rs.reseedsArg(n, recv) {
				clean = false
			}
			return
		}
		children(n, func(c ast.Node) { walk(c, reseeded) })
	}
	reseeded := false
	walk(fd.Body, &reseeded)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && rs.pass.TypesInfo.Uses[id] == param && !accounted[id] {
			clean = false
		}
		return clean
	})
	rs.clean[param] = clean
	return clean
}

// reseedCall reports whether call reseeds an rng.Source — src.Reseed(…) or
// key.ReseedAnt(src, …) — returning the reseeded expression.
func reseedCall(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return nil, false
	}
	switch name, pkg := namedRecv(s.Recv()); {
	case pkg != "rng":
		return nil, false
	case name == "Source" && sel.Sel.Name == "Reseed":
		return sel.X, true
	case name == "Key" && sel.Sel.Name == "ReseedAnt" && len(call.Args) > 0:
		return call.Args[0], true
	}
	return nil, false
}

// drawCall reports whether call consumes from an rng stream, returning
// the expression whose indexing identifies the stream (the method
// receiver, or the *rng.Source argument for hook-style transfers).
func drawCall(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := pass.TypesInfo.Selections[sel]; ok {
			recvName, pkgName := namedRecv(s.Recv())
			if pkgName == "rng" {
				if recvName == "Source" && drawMethods[sel.Sel.Name] {
					return sel.X, true
				}
				if recvName == "Threshold" && sel.Sel.Name == "Draw" {
					return call.Args[0], true
				}
			}
		}
	}
	// Hook-style transfer: handing a *rng.Source to any callee makes the
	// callee's draws part of this site's stream discipline.
	for _, arg := range call.Args {
		t := pass.TypesInfo.TypeOf(arg)
		if p, ok := t.(*types.Pointer); ok {
			if name, pkg := namedRecv(p.Elem()); name == "Source" && pkg == "rng" {
				return arg, true
			}
		}
	}
	return nil, false
}

// namedRecv unwraps pointers and reports the named type and its
// package's name.
func namedRecv(t types.Type) (string, string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Name(), n.Obj().Pkg().Name()
}

// checkOpcodeContracts is SD3.
func checkOpcodeContracts(pass *analysis.Pass, annots *hhannot.Map, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				tn, _ := namedRecv(obj.Type())
				if tn != "EmitOp" && tn != "ObserveOp" {
					continue
				}
				if !strings.HasPrefix(name.Name, "Emit") && !strings.HasPrefix(name.Name, "Observe") {
					continue
				}
				a, ok := contractFor(annots, vs)
				if !ok {
					pass.Reportf(name.Pos(), "opcode const %s has no draw contract; annotate //hh:draws <spec> scalar=<name>", name.Name)
					continue
				}
				if err := validateContract(a.Args); err != "" {
					pass.Reportf(name.Pos(), "opcode const %s has a malformed //hh:draws contract: %s", name.Name, err)
				}
			}
		}
	}
}

func contractFor(annots *hhannot.Map, vs *ast.ValueSpec) (hhannot.Annot, bool) {
	if a, ok := hhannot.DocGet(vs.Doc, "draws"); ok {
		return a, true
	}
	if a, ok := hhannot.DocGet(vs.Comment, "draws"); ok {
		return a, true
	}
	return annots.Get(vs, "draws")
}

// validateContract checks "<spec> scalar=<name>": a non-empty draw spec
// plus the scalar counterpart that consumes the identical draws.
func validateContract(args string) string {
	fields := strings.Fields(args)
	if len(fields) == 0 {
		return "empty contract"
	}
	scalar := ""
	spec := 0
	for _, fld := range fields {
		if v, ok := strings.CutPrefix(fld, "scalar="); ok {
			scalar = v
		} else {
			spec++
		}
	}
	if spec == 0 {
		return "missing draw spec before scalar="
	}
	if scalar == "" {
		return "missing scalar=<name> counterpart"
	}
	return ""
}

func isBucketRange(n *ast.RangeStmt) bool {
	name := rootName(n.X)
	for _, marker := range []string{"bkt", "bucket", "members"} {
		if strings.Contains(strings.ToLower(name), marker) {
			return true
		}
	}
	return false
}

func rootName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return ""
		}
	}
}

func containsIndex(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.IndexExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// children invokes fn for each direct child node of n, excluding the
// node types walk handles itself (which never reach here).
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

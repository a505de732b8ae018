// Package detorder defines an Analyzer that flags map iteration feeding
// order-sensitive sinks. Go randomizes map iteration order per run; the
// repo's contract is byte-identical exports, merges, and roll-ups at
// any worker count, so a map range that writes, encodes, merges,
// accumulates floats, or sends on a channel in iteration order is a
// nondeterminism bug even when today's output happens to look stable.
// The sanctioned idiom is collect-keys-then-sort: append the keys (or
// key/value pairs) to a slice, sort it, and iterate the slice.
//
// Sinks recognized inside a map-range body:
//
//   - fmt printing to a writer or stdout (Print/Fprint families;
//     Sprint/Errorf are pure and stay legal);
//   - calls to methods conventionally order-sensitive in this codebase:
//     Write*, Encode, Merge, Observe, Record, Emit;
//   - appends to a slice variable, a field (x.f) or an element (s[i])
//     that are never followed by a sort of that slice in the same
//     function (a sorted append is the sanctioned idiom);
//   - floating-point accumulation of loop-derived values (float
//     addition does not commute in rounding);
//   - channel sends.
//
// Opt-out: //smores:anyorder <reason> on the range line, the sink line,
// or the enclosing function's doc comment. The reason is mandatory — a
// bare annotation is itself flagged — because every exemption is a
// claim that the consumer is order-insensitive, and that claim must be
// reviewable.
package detorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"smores/internal/analysis"
	"smores/internal/analyzers/annot"
)

// Analyzer is the detorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc:  "forbid map iteration order from feeding merges, exports, writers, or float accumulation",
	Run:  run,
}

// sinkMethods are method names treated as order-sensitive consumers.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Merge": true, "Observe": true, "Record": true, "Emit": true,
}

// sinkFmtFuncs are the fmt package's impure printers.
var sinkFmtFuncs = map[string]bool{
	"Print": true, "Println": true, "Printf": true,
	"Fprint": true, "Fprintln": true, "Fprintf": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		lines := annot.FileLines(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if docReason, docAnnotated := annot.Value(fd.Doc, "anyorder"); docAnnotated {
				if docReason == "" {
					pass.Report(analysis.Diagnostic{
						Pos: fd.Pos(), End: fd.Name.End(),
						Message: "bare //smores:anyorder: state why iteration order cannot reach an order-sensitive consumer",
					})
				}
				continue // whole function exempt
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok || !rangesOverMap(pass, rng) {
					return true
				}
				checkRange(pass, fd, rng, lines)
				return true
			})
		}
	}
	return nil, nil
}

func rangesOverMap(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func checkRange(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, lines *annot.Lines) {
	// Resolve the opt-out, demanding a reason wherever it is spelled.
	if reason, ok := lines.Find(pass.Fset, rng.Pos(), "anyorder"); ok {
		if reason == "" {
			pass.Report(analysis.Diagnostic{
				Pos: rng.Pos(), End: rng.Pos(),
				Message: "bare //smores:anyorder: state why iteration order cannot reach an order-sensitive consumer",
			})
		}
		return
	}

	loopVars := make(map[types.Object]bool)
	for _, v := range [2]ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				loopVars[obj] = true
			}
		}
	}

	report := func(pos, end token.Pos, sink string) {
		if reason, ok := lines.Find(pass.Fset, pos, "anyorder"); ok {
			if reason == "" {
				pass.Report(analysis.Diagnostic{
					Pos: pos, End: pos,
					Message: "bare //smores:anyorder: state why iteration order cannot reach an order-sensitive consumer",
				})
			}
			return
		}
		pass.Report(analysis.Diagnostic{
			Pos: pos, End: end,
			Message: fmt.Sprintf(
				"map iteration order feeds %s: iterate sorted keys or annotate //smores:anyorder <reason>", sink),
		})
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sink := callSink(pass, n); sink != "" {
				report(n.Pos(), n.End(), sink)
			}
		case *ast.SendStmt:
			report(n.Pos(), n.End(), "a channel send")
		case *ast.AssignStmt:
			if target, ok := appendTarget(pass, n); ok {
				if !sortedLater(pass, fd, target) {
					report(n.Pos(), n.End(),
						fmt.Sprintf("append to %s with no later sort of it in %s", target.Name(), fd.Name.Name))
				}
				return true
			}
			if isFloatAccum(pass, n, loopVars) {
				report(n.Pos(), n.End(), "floating-point accumulation (rounding does not commute)")
			}
		}
		return true
	})
}

// callSink classifies a call inside the range body as an
// order-sensitive consumer.
func callSink(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s, isMethod := pass.TypesInfo.Selections[sel]; isMethod {
		if s.Kind() == types.MethodVal && sinkMethods[sel.Sel.Name] {
			recv := types.TypeString(s.Recv(), types.RelativeTo(pass.Pkg))
			return fmt.Sprintf("%s.%s", recv, sel.Sel.Name)
		}
		return ""
	}
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && sinkFmtFuncs[fn.Name()] {
		return "fmt." + fn.Name()
	}
	return ""
}

// appendTarget recognizes `s = append(s, ...)`, `x.f = append(x.f, ...)`
// and `s[i] = append(s[i], ...)` and returns the appended slice's
// variable: s, the field f, or s.
func appendTarget(pass *analysis.Pass, as *ast.AssignStmt) (*types.Var, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, false
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	v := sliceVar(pass, call.Args[0])
	return v, v != nil
}

// sliceVar returns the variable a slice expression names: s for s, the
// field f for x.f, and the variable of s for s[i]; nil for any other
// expression.
func sliceVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := pass.TypesInfo.ObjectOf(e).(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := pass.TypesInfo.ObjectOf(e.Sel).(*types.Var)
		return v
	case *ast.IndexExpr:
		return sliceVar(pass, e.X)
	}
	return nil
}

// sortedLater reports whether the function body contains a sorting call
// taking the slice as an argument: anything from package sort or
// slices, or a sort-named helper (sortPoints-style wrappers are common
// in this codebase). Position is deliberately not checked: a sort
// anywhere in the function expresses the collect-then-sort intent, and
// a sort placed before the loop would be dead code the author notices
// immediately.
func sortedLater(pass *analysis.Pass, fd *ast.FuncDecl, target *types.Var) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var fn *types.Func
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		case *ast.Ident:
			fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
		}
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" &&
			!strings.Contains(strings.ToLower(fn.Name()), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if sliceVar(pass, arg) == target {
				found = true
			}
		}
		return true
	})
	return found
}

// isFloatAccum recognizes `x += e` (and -=, *=) where x is
// floating-point and e is derived from the loop variables.
func isFloatAccum(pass *analysis.Pass, as *ast.AssignStmt, loopVars map[types.Object]bool) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
	default:
		return false
	}
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[as.Lhs[0]]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return false
	}
	uses := false
	ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && loopVars[pass.TypesInfo.ObjectOf(id)] {
			uses = true
		}
		return !uses
	})
	return uses
}

// Package atomicmix defines an Analyzer that forbids mixing sync/atomic
// operations with plain loads and stores on the same memory. Counters
// shared across goroutines through sync/atomic are only safe if every
// access is atomic; a single plain read of an atomically updated field
// is a data race the race detector only catches when the interleaving
// happens to occur in a test run. No simulator package uses sync/atomic
// today (the energy profile publishes under a mutex); the rule keeps
// any future use honest. It is mechanical: once any code passes &x to a
// sync/atomic function, every access to x must be atomic.
//
// A field or package variable becomes "atomic" the moment its address
// flows into a sync/atomic call; the analyzer exports an AtomicFact for
// it, so accesses in dependent packages are checked too (one package
// owns the counters, others read them). Plain address-taking (&x without a surrounding atomic call) is
// allowed — the pointer is assumed to feed further atomic use — as is
// composite-literal initialization before the value is published.
// Fields typed atomic.Int64 and friends are inherently safe (the type
// has no plain accessors) and are not tracked.
//
// Opt-out: //smores:plainaccess <reason> on the offending line — e.g. a
// read inside a sync.Once body that is provably single-threaded.
package atomicmix

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"smores/internal/analysis"
	"smores/internal/analyzers/annot"
)

// AtomicFact marks a field or package variable whose address flows into
// a sync/atomic call in its defining package.
type AtomicFact struct {
	Kind string // "field" or "variable"
}

// AFact marks AtomicFact as a fact type.
func (*AtomicFact) AFact() {}

func (f *AtomicFact) String() string { return "atomic " + f.Kind }

// Analyzer is the atomicmix pass.
var Analyzer = &analysis.Analyzer{
	Name:      "atomicmix",
	Doc:       "forbid plain reads/writes of fields and variables accessed via sync/atomic",
	FactTypes: []analysis.Fact{(*AtomicFact)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Pass 1: find every object whose address reaches a sync/atomic call
	// in this package, and export facts for them.
	atomicObjs := make(map[types.Object]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) || len(call.Args) == 0 {
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			if obj := trackedObject(pass, ast.Unparen(addr.X)); obj != nil {
				atomicObjs[obj] = true
			}
			return true
		})
	}
	for obj := range atomicObjs {
		if obj.Pkg() == pass.Pkg {
			pass.ExportObjectFact(obj, &AtomicFact{Kind: kindOf(obj)})
		}
	}

	isAtomic := func(obj types.Object) bool {
		if atomicObjs[obj] {
			return true
		}
		if obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
			return false
		}
		return pass.ImportObjectFact(obj, new(AtomicFact))
	}

	// Pass 2: flag plain accesses.
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		lines := annot.FileLines(pass.Fset, file)
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			var obj types.Object
			switch e := n.(type) {
			case *ast.SelectorExpr:
				obj = trackedObject(pass, e)
			case *ast.Ident:
				// Selector Sel idents and composite-literal keys are
				// handled (or deliberately exempted) via their parents.
				if p := parentOf(stack); p != nil {
					if sel, ok := p.(*ast.SelectorExpr); ok && sel.Sel == e {
						return true
					}
					if kv, ok := p.(*ast.KeyValueExpr); ok && kv.Key == e {
						return true
					}
				}
				obj = trackedObject(pass, e)
			default:
				return true
			}
			if obj == nil || !isAtomic(obj) {
				return true
			}
			parent := parentOf(stack)
			if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND {
				return true // address-taken: assumed to feed an atomic op
			}
			if lines.Allows(pass.Fset, n.(ast.Expr).Pos(), "plainaccess") {
				return true
			}
			pass.Report(analysis.Diagnostic{
				Pos: n.Pos(), End: n.End(),
				Message: fmt.Sprintf(
					"%s %s is accessed with sync/atomic: this plain %s races with the atomic accesses (use atomic.Load/Store; //smores:plainaccess to opt out)",
					kindOf(obj), obj.Name(), accessKind(stack)),
			})
			return true
		})
	}
	return nil, nil
}

// isAtomicCall reports whether the call invokes a package-level
// sync/atomic function (AddInt64, LoadUint32, StorePointer, ...).
// Methods of atomic.Int64-style types are not address-based and do not
// make their receiver "tracked".
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, isMethod := pass.TypesInfo.Selections[sel]; isMethod {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// trackedObject resolves an expression to a struct field or
// package-level variable worth tracking. Locals are ignored: a local
// mixed access is already glaring in a single screen of code, and
// locals cannot carry cross-package facts.
func trackedObject(pass *analysis.Pass, e ast.Expr) types.Object {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			if sel.Kind() != types.FieldVal {
				return nil
			}
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[e.Sel] // qualified package var
		}
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	if v.IsField() {
		return v
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v
	}
	return nil
}

func kindOf(obj types.Object) string {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return "field"
	}
	return "variable"
}

// parentOf returns the AST parent of the node on top of the walk stack.
func parentOf(stack []ast.Node) ast.Node {
	if len(stack) < 2 {
		return nil
	}
	return stack[len(stack)-2]
}

// accessKind classifies the access on top of the stack as a read or
// write for the diagnostic text.
func accessKind(stack []ast.Node) string {
	node := stack[len(stack)-1]
	parent := parentOf(stack)
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == node {
				return "write"
			}
		}
	case *ast.IncDecStmt:
		if p.X == node {
			return "write"
		}
	}
	return "read"
}

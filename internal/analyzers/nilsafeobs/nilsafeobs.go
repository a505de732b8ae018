// Package nilsafeobs defines an Analyzer enforcing the observability
// layer's core contract: every obs handle is optional, a nil *Profile
// or *Tracer must behave as a disabled no-op, and
// the uninstrumented hot path pays only a predictable nil check. That
// only holds if every exported pointer-receiver method starts by
// guarding the receiver — one missing guard turns "observability off"
// into a panic in the middle of a fleet run.
//
// Scope: all exported pointer-receiver methods on exported types in
// packages named "obs", plus any type annotated //smores:nilsafe in any
// package. A method complies when it
//
//   - opens with `if recv == nil { ... return/panic }` (the nil test may
//     be one disjunct of the condition),
//   - is a single `return <expr involving recv == nil>` (e.g. the
//     Enabled()/On() predicates), or
//   - delegates in a single statement to another compliant method on the
//     same receiver (Inc() calling Add(1) — a nil receiver flows through
//     unharmed).
//
// Methods that are genuinely unreachable with a nil receiver opt out
// with //smores:nonnil <reason>. Where the zero return value is
// unambiguous the analyzer attaches a suggested fix inserting the guard.
package nilsafeobs

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"smores/internal/analysis"
	"smores/internal/analyzers/annot"
)

// Analyzer is the nilsafeobs pass.
var Analyzer = &analysis.Analyzer{
	Name: "nilsafeobs",
	Doc:  "require nil-receiver guards on exported pointer-receiver methods of obs types",
	Run:  run,
}

type method struct {
	decl *ast.FuncDecl
	recv *ast.Ident // named receiver ident, nil when unnamed
	typ  *types.Named
}

func run(pass *analysis.Pass) (interface{}, error) {
	obsPkg := pass.Pkg.Name() == "obs"

	// Types opted in via //smores:nilsafe.
	annotated := make(map[*types.TypeName]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if annot.Has(doc, "nilsafe") {
					if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
						annotated[tn] = true
					}
				}
			}
		}
	}
	if !obsPkg && len(annotated) == 0 {
		return nil, nil
	}

	var methods []*method
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if annot.Has(fd.Doc, "nonnil") {
				continue
			}
			recvField := fd.Recv.List[0]
			tv, ok := pass.TypesInfo.Types[recvField.Type]
			if !ok {
				continue
			}
			ptr, ok := tv.Type.(*types.Pointer)
			if !ok {
				continue // value receivers cannot be nil
			}
			named, ok := ptr.Elem().(*types.Named)
			if !ok {
				continue
			}
			inScope := annotated[named.Obj()] || (obsPkg && named.Obj().Exported())
			if !inScope {
				continue
			}
			m := &method{decl: fd, typ: named}
			if len(recvField.Names) == 1 && recvField.Names[0].Name != "_" {
				m.recv = recvField.Names[0]
			}
			methods = append(methods, m)
		}
	}

	// Fixpoint over delegation: a method is safe if directly guarded, or
	// if its single statement delegates to a safe method on the receiver.
	safe := make(map[string]bool) // "Type.Method"
	key := func(t *types.Named, name string) string { return t.Obj().Name() + "." + name }
	pending := methods
	for changed := true; changed; {
		changed = false
		var next []*method
		for _, m := range pending {
			switch {
			case !usesIdentNamed(m.decl.Body, receiverName(m)):
				// Unnamed or unused receiver: nothing to dereference.
				safe[key(m.typ, m.decl.Name.Name)] = true
				changed = true
			case directlyGuarded(pass, m):
				safe[key(m.typ, m.decl.Name.Name)] = true
				changed = true
			default:
				if callee, ok := delegatesTo(pass, m); ok {
					if safe[key(m.typ, callee)] {
						safe[key(m.typ, m.decl.Name.Name)] = true
						changed = true
						continue
					}
					next = append(next, m) // callee not yet resolved
					continue
				}
				next = append(next, m)
			}
		}
		pending = next
	}

	for _, m := range pending {
		d := analysis.Diagnostic{
			Pos: m.decl.Name.Pos(),
			End: m.decl.Name.End(),
			Message: fmt.Sprintf(
				"exported method (*%s).%s must begin with a nil-receiver guard (obs handles are optional; //smores:nonnil to opt out)",
				m.typ.Obj().Name(), m.decl.Name.Name),
		}
		if fix, ok := guardFix(pass, m); ok {
			d.SuggestedFixes = []analysis.SuggestedFix{fix}
		}
		pass.Report(d)
	}
	return nil, nil
}

func receiverName(m *method) string {
	if m.recv != nil {
		return m.recv.Name
	}
	return "_"
}

func usesIdentNamed(body *ast.BlockStmt, name string) bool {
	if name == "_" {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// directlyGuarded recognizes the two guard shapes.
func directlyGuarded(pass *analysis.Pass, m *method) bool {
	if m.recv == nil {
		return false
	}
	body := m.decl.Body.List
	if len(body) == 0 {
		return true // empty body dereferences nothing
	}
	switch first := body[0].(type) {
	case *ast.IfStmt:
		if condTestsNil(pass, first.Cond, m.recv) && terminates(first.Body) {
			return true
		}
	case *ast.ReturnStmt:
		if len(body) == 1 {
			for _, res := range first.Results {
				if exprTestsNil(pass, res, m.recv) {
					return true
				}
			}
		}
	}
	return false
}

// condTestsNil reports whether cond contains `recv == nil` as a
// top-level test or || disjunct.
func condTestsNil(pass *analysis.Pass, cond ast.Expr, recv *ast.Ident) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return condTestsNil(pass, e.X, recv) || condTestsNil(pass, e.Y, recv)
		}
		if e.Op == token.EQL {
			return isRecvNilPair(pass, e.X, e.Y, recv)
		}
	}
	return false
}

// exprTestsNil reports whether the expression contains any recv ==/!= nil
// comparison (the single-return predicate form).
func exprTestsNil(pass *analysis.Pass, x ast.Expr, recv *ast.Ident) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
			if isRecvNilPair(pass, be.X, be.Y, recv) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isRecvNilPair(pass *analysis.Pass, a, b ast.Expr, recv *ast.Ident) bool {
	isRecv := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		if !ok {
			return false
		}
		def := pass.TypesInfo.Defs[recv]
		return def != nil && pass.TypesInfo.Uses[id] == def
	}
	isNil := func(x ast.Expr) bool {
		tv, ok := pass.TypesInfo.Types[x]
		return ok && tv.IsNil()
	}
	return (isRecv(a) && isNil(b)) || (isRecv(b) && isNil(a))
}

// terminates reports whether a guard body unconditionally leaves the
// function (return or panic as its final statement).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// delegatesTo recognizes single-statement delegation to another method
// on the same receiver and returns the callee name.
func delegatesTo(pass *analysis.Pass, m *method) (string, bool) {
	if m.recv == nil || len(m.decl.Body.List) != 1 {
		return "", false
	}
	var call *ast.CallExpr
	switch s := m.decl.Body.List[0].(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.ReturnStmt:
		if len(s.Results) == 1 {
			call, _ = s.Results[0].(*ast.CallExpr)
		}
	}
	if call == nil {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	def := pass.TypesInfo.Defs[m.recv]
	if def == nil || pass.TypesInfo.Uses[id] != def {
		return "", false
	}
	return sel.Sel.Name, true
}

// guardFix builds the `if recv == nil { return <zero> }` insertion when
// the method's zero return values are unambiguous.
func guardFix(pass *analysis.Pass, m *method) (analysis.SuggestedFix, bool) {
	if m.recv == nil {
		return analysis.SuggestedFix{}, false
	}
	sig, ok := pass.TypesInfo.Defs[m.decl.Name].(*types.Func)
	if !ok {
		return analysis.SuggestedFix{}, false
	}
	results := sig.Type().(*types.Signature).Results()
	ret := "return"
	if results.Len() > 0 {
		zeros := make([]string, results.Len())
		for i := 0; i < results.Len(); i++ {
			z, ok := zeroLiteral(results.At(i).Type())
			if !ok {
				return analysis.SuggestedFix{}, false
			}
			zeros[i] = z
		}
		ret = "return " + join(zeros)
	}
	insert := fmt.Sprintf("\n\tif %s == nil {\n\t\t%s\n\t}", m.recv.Name, ret)
	// One-line method bodies (`{ s.f = v }`) need the rest of the body
	// pushed onto its own line, or the guard's closing brace and the
	// first statement would share a line, which does not parse.
	if len(m.decl.Body.List) > 0 {
		lbrace := pass.Fset.Position(m.decl.Body.Lbrace).Line
		first := pass.Fset.Position(m.decl.Body.List[0].Pos()).Line
		if lbrace == first {
			insert += "\n"
		}
	}
	pos := m.decl.Body.Lbrace + 1
	return analysis.SuggestedFix{
		Message:   "insert nil-receiver guard",
		TextEdits: []analysis.TextEdit{{Pos: pos, End: pos, NewText: []byte(insert)}},
	}, true
}

func zeroLiteral(t types.Type) (string, bool) {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return "nil", true
	case *types.Basic:
		info := u.Info()
		switch {
		case info&types.IsBoolean != 0:
			return "false", true
		case info&types.IsNumeric != 0:
			return "0", true
		case info&types.IsString != 0:
			return `""`, true
		}
	}
	return "", false
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

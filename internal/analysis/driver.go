package analysis

import (
	"fmt"
	"go/format"
	"go/token"
	"go/types"
	"os"
	"sort"

	"smores/internal/analysis/load"
)

// Finding is one diagnostic resolved to concrete file positions —
// the driver-level view the multichecker prints, JSON-encodes, or fixes.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Category string         `json:"category,omitempty"`
	Position token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Message  string         `json:"message"`
	Fixable  bool           `json:"fixable,omitempty"`

	diag Diagnostic
	fset *token.FileSet
}

// String renders the conventional file:line:col: analyzer: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Column, f.Analyzer, f.Message)
}

// Session is a multi-package, multi-analyzer driver run: it owns the
// fact store and the per-package analyzer results, so facts exported
// while analyzing a dependency are importable when its dependents are
// analyzed, and a `Requires` result is computed once per (analyzer,
// package) no matter how many dependents ask for it. Feed packages in
// dependency order (the go list loader already yields them that way)
// for cross-package facts to flow forward.
type Session struct {
	store   *factStore
	results map[resultKey]interface{}
}

type resultKey struct {
	analyzer *Analyzer
	pkgPath  string
}

// NewSession returns an empty driver session.
func NewSession() *Session {
	return &Session{
		store:   newFactStore(),
		results: make(map[resultKey]interface{}),
	}
}

// expand returns the transitive Requires closure of analyzers in a
// topological order (dependencies first), rejecting cycles.
func expand(analyzers []*Analyzer) ([]*Analyzer, error) {
	var order []*Analyzer
	state := make(map[*Analyzer]int) // 0 unseen, 1 visiting, 2 done
	var visit func(a *Analyzer, path []string) error
	visit = func(a *Analyzer, path []string) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("analyzer dependency cycle: %s -> %s",
				joinPath(path), a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, req := range a.Requires {
			if err := visit(req, append(path, a.Name)); err != nil {
				return err
			}
		}
		state[a] = 2
		order = append(order, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func joinPath(path []string) string {
	out := ""
	for i, p := range path {
		if i > 0 {
			out += " -> "
		}
		out += p
	}
	return out
}

// RunPackage applies analyzers (plus their Requires closure) to one
// loaded package and returns the findings sorted by position. Only
// diagnostics from the requested analyzers are returned; analyzers run
// purely as dependencies stay silent.
func (s *Session) RunPackage(fset *token.FileSet, pkg *load.Package, analyzers []*Analyzer) ([]Finding, error) {
	order, err := expand(analyzers)
	if err != nil {
		return nil, err
	}
	requested := make(map[*Analyzer]bool, len(analyzers))
	for _, a := range analyzers {
		requested[a] = true
	}
	var out []Finding
	for _, a := range order {
		key := resultKey{a, pkg.ImportPath}
		if _, done := s.results[key]; done && !requested[a] {
			continue // dependency already computed for this package
		}
		a := a
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      pkg.Syntax,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			TypesSizes: nil,
			ResultOf:   make(map[*Analyzer]interface{}, len(a.Requires)),
		}
		for _, req := range a.Requires {
			pass.ResultOf[req] = s.results[resultKey{req, pkg.ImportPath}]
		}
		s.installFactHooks(pass)
		report := requested[a]
		pass.Report = func(d Diagnostic) {
			if !report {
				return
			}
			p := fset.Position(d.Pos)
			out = append(out, Finding{
				Analyzer: a.Name,
				Category: d.Category,
				Position: p,
				File:     p.Filename,
				Line:     p.Line,
				Column:   p.Column,
				Message:  d.Message,
				Fixable:  len(d.SuggestedFixes) > 0,
				diag:     d,
				fset:     fset,
			})
		}
		// A requested analyzer that already ran silently as a dependency
		// runs again here to surface its diagnostics; fact export is
		// idempotent for identical values, so the store stays coherent.
		res, err := a.Run(pass)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
		s.results[key] = res
	}
	sortFindings(out)
	return out, nil
}

// installFactHooks binds the pass's fact methods to the session store.
func (s *Session) installFactHooks(pass *Pass) {
	a, own := pass.Analyzer, pass.Pkg
	pass.exportObjectFact = func(obj types.Object, fact Fact) error {
		if obj == nil || obj.Pkg() != own {
			return fmt.Errorf("cannot export fact on object outside the package under analysis")
		}
		key, ok := objKey(obj)
		if !ok {
			// Only package-scope declarations, methods, and fields of
			// named structs have stable keys. Anything else (locals,
			// anonymous-struct fields) cannot be referenced from another
			// package, so dropping the fact is harmless: analyzers track
			// intra-package state locally.
			return nil
		}
		return s.store.export(a, own, key, fact)
	}
	pass.importObjectFact = func(obj types.Object, fact Fact) bool {
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		key, ok := objKey(obj)
		if !ok {
			return false
		}
		return s.store.lookup(a, obj.Pkg().Path(), key, fact)
	}
	pass.exportPackageFact = func(fact Fact) error {
		return s.store.export(a, own, "", fact)
	}
	pass.importPackageFact = func(pkg *types.Package, fact Fact) bool {
		if pkg == nil {
			return false
		}
		return s.store.lookup(a, pkg.Path(), "", fact)
	}
	pass.allObjectFacts = func() []ObjectFact { return s.store.allObjectFacts(a) }
	pass.allPackageFacts = func() []PackageFact { return s.store.allPackageFacts(a) }
}

// RunPackage applies analyzers to one loaded package in a fresh
// single-package session; cross-package facts do not flow. Kept for
// callers that analyze packages in isolation.
func RunPackage(fset *token.FileSet, pkg *load.Package, analyzers []*Analyzer) ([]Finding, error) {
	return NewSession().RunPackage(fset, pkg, analyzers)
}

// Run loads patterns from dir and applies analyzers to every matched
// package in one session. go list yields dependencies before
// dependents, so each package's facts are sealed before any dependent
// imports them — the load is performed once and shared by the whole
// analyzer suite (the `make lint` runtime budget rests on that).
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	prog, err := load.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	session := NewSession()
	var all []Finding
	for _, pkg := range prog.Packages {
		fs, err := session.RunPackage(prog.Fset, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sortFindings(all)
	return all, nil
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// byteEdit is a resolved text edit in file-offset space.
type byteEdit struct {
	start, end int
	text       []byte
}

// ApplyFixes applies the first suggested fix of every fixable finding,
// grouped per file, and returns the set of rewritten file names. Edits
// are applied right-to-left so earlier offsets stay valid; overlapping
// edits within one file abort that file with an error.
func ApplyFixes(findings []Finding) ([]string, error) {
	perFile := make(map[string][]byteEdit)
	for _, f := range findings {
		if len(f.diag.SuggestedFixes) == 0 {
			continue
		}
		for _, te := range f.diag.SuggestedFixes[0].TextEdits {
			pos := f.fset.Position(te.Pos)
			end := pos
			if te.End.IsValid() {
				end = f.fset.Position(te.End)
			}
			if end.Filename != pos.Filename {
				return nil, fmt.Errorf("fix for %s spans files", f)
			}
			perFile[pos.Filename] = append(perFile[pos.Filename], byteEdit{pos.Offset, end.Offset, te.NewText})
		}
	}
	var changed []string
	for file, edits := range perFile {
		src, err := os.ReadFile(file)
		if err != nil {
			return changed, err
		}
		fixed, err := applyEdits(src, edits)
		if err != nil {
			return changed, fmt.Errorf("%s: %v", file, err)
		}
		// Refuse to write a file the fixes broke: a failed gofmt here
		// means the edited source no longer parses.
		formatted, ferr := format.Source(fixed)
		if ferr != nil {
			return changed, fmt.Errorf("%s: fixed source does not parse (file left untouched): %v", file, ferr)
		}
		fixed = formatted
		if err := os.WriteFile(file, fixed, 0o644); err != nil {
			return changed, err
		}
		changed = append(changed, file)
	}
	sort.Strings(changed)
	return changed, nil
}

// ApplyFixesToSource applies every finding's first fix for one file to
// an in-memory buffer (the analysistest golden-file path).
func ApplyFixesToSource(src []byte, file string, findings []Finding) ([]byte, error) {
	var edits []byteEdit
	for _, f := range findings {
		if len(f.diag.SuggestedFixes) == 0 {
			continue
		}
		for _, te := range f.diag.SuggestedFixes[0].TextEdits {
			pos := f.fset.Position(te.Pos)
			if pos.Filename != file {
				continue
			}
			end := pos
			if te.End.IsValid() {
				end = f.fset.Position(te.End)
			}
			edits = append(edits, byteEdit{pos.Offset, end.Offset, te.NewText})
		}
	}
	fixed, err := applyEdits(src, edits)
	if err != nil {
		return nil, err
	}
	if formatted, ferr := format.Source(fixed); ferr == nil {
		fixed = formatted
	}
	return fixed, nil
}

// applyEdits applies byte-offset edits to src, rejecting overlaps.
func applyEdits(src []byte, edits []byteEdit) ([]byte, error) {
	// Identical edits (e.g. several fixes inserting the same import at
	// the same point) collapse to one.
	seen := make(map[string]bool, len(edits))
	uniq := edits[:0]
	for _, e := range edits {
		key := fmt.Sprintf("%d:%d:%s", e.start, e.end, e.text)
		if seen[key] {
			continue
		}
		seen[key] = true
		uniq = append(uniq, e)
	}
	edits = uniq
	sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
	for i := 1; i < len(edits); i++ {
		if edits[i].end > edits[i-1].start || edits[i].start == edits[i-1].start {
			return nil, fmt.Errorf("overlapping suggested fixes at offsets %d and %d", edits[i].start, edits[i-1].start)
		}
	}
	out := append([]byte(nil), src...)
	for _, e := range edits {
		if e.start < 0 || e.end > len(out) || e.start > e.end {
			return nil, fmt.Errorf("edit range [%d,%d) out of bounds", e.start, e.end)
		}
		out = append(out[:e.start], append(append([]byte(nil), e.text...), out[e.end:]...)...)
	}
	return out, nil
}

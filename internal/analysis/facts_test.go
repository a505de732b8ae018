package analysis_test

// Tests for the fact plumbing itself: a two-package fixture proving an
// annotation discovered in package a propagates to a caller in package
// b, analyzer dependencies through Requires/ResultOf, and rejection of
// undeclared fact types.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smores/internal/analysis"
	"smores/internal/analysis/load"
)

// markFact tags functions whose doc comment carries "MARK".
type markFact struct{ Tag string }

func (*markFact) AFact() {}

// pkgCountFact is a package-level fact counting marked functions.
type pkgCountFact struct{ N int }

func (*pkgCountFact) AFact() {}

// newMarkAnalyzer exports markFact on every function whose name starts
// with "Marked", and reports every call to a function carrying an
// imported markFact. The report only fires for cross-package callees
// when facts flow through the session, so a finding in package b is
// positive proof of the plumbing.
func newMarkAnalyzer() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name:      "marktest",
		Doc:       "test analyzer exercising fact export/import",
		FactTypes: []analysis.Fact{(*markFact)(nil), (*pkgCountFact)(nil)},
	}
	a.Run = func(pass *analysis.Pass) (interface{}, error) {
		n := 0
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			if strings.HasPrefix(name, "Marked") {
				pass.ExportObjectFact(scope.Lookup(name), &markFact{Tag: name})
				n++
			}
		}
		if n > 0 {
			pass.ExportPackageFact(&pkgCountFact{N: n})
		}
		// Report uses of marked functions, local or imported.
		for ident, obj := range pass.TypesInfo.Uses {
			var fact markFact
			if pass.ImportObjectFact(obj, &fact) {
				pass.Reportf(ident.Pos(), "call of marked function %s", fact.Tag)
			}
		}
		return nil, nil
	}
	return a
}

func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		full := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func checkPkg(t *testing.T, prog *load.Program, path string) *load.Package {
	t.Helper()
	dir := filepath.Join(prog.SrcRoot, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	pkg, err := prog.CheckAdHoc(path, dir, files)
	if err != nil {
		t.Fatalf("checking %s: %v", path, err)
	}
	return pkg
}

const pkgASrc = `package a

func Marked() int { return 1 }

func Plain() int { return 2 }
`

const pkgBSrc = `package b

import "a"

func Use() int { return a.Marked() + a.Plain() }
`

func newFixture(t *testing.T) *load.Program {
	t.Helper()
	root := t.TempDir()
	srcRoot := filepath.Join(root, "src")
	writeTree(t, srcRoot, map[string]string{
		"a/a.go": pkgASrc,
		"b/b.go": pkgBSrc,
	})
	prog := load.NewProgram(srcRoot)
	prog.SrcRoot = srcRoot
	return prog
}

// TestObjectFactCrossPackage is the canonical propagation proof: the
// analyzer marks a.Marked while analyzing package a, and the finding
// appears at the call site in package b. Removing the fact plumbing
// (or running b in a fresh session) silences the b finding.
func TestObjectFactCrossPackage(t *testing.T) {
	prog := newFixture(t)
	an := newMarkAnalyzer()
	session := analysis.NewSession()

	pa := checkPkg(t, prog, "a")
	pb := checkPkg(t, prog, "b")

	if _, err := session.RunPackage(prog.Fset, pa, []*analysis.Analyzer{an}); err != nil {
		t.Fatal(err)
	}
	findings, err := session.RunPackage(prog.Fset, pb, []*analysis.Analyzer{an})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(findings, "call of marked function Marked") {
		t.Errorf("fact did not propagate from a to b; findings: %v", findings)
	}

	// Package fact visible from b too.
	var pc pkgCountFact
	ranB := false
	probe := &analysis.Analyzer{
		Name:      "probe",
		Doc:       "asserts package facts cross the boundary",
		FactTypes: []analysis.Fact{(*pkgCountFact)(nil)},
	}
	probe.Run = func(pass *analysis.Pass) (interface{}, error) {
		ranB = pass.ImportPackageFact(pa.Types, &pc)
		return nil, nil
	}
	// Same session: probe shares marktest's fact type but not its
	// store bucket, so this must come back false — facts are
	// namespaced per analyzer.
	if _, err := session.RunPackage(prog.Fset, pb, []*analysis.Analyzer{probe}); err != nil {
		t.Fatal(err)
	}
	if ranB {
		t.Error("package fact leaked across analyzer namespaces")
	}

	// A fresh session without package a analyzed: no propagation.
	fresh := analysis.NewSession()
	findings, err = fresh.RunPackage(prog.Fset, pb, []*analysis.Analyzer{newMarkAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	if hasFinding(findings, "call of marked function Marked") {
		t.Error("finding reported without facts from package a — plumbing test is vacuous")
	}
}

// TestRequiresResultOf exercises the dependency plumbing: a required
// analyzer's result is visible in ResultOf, required analyzers stay
// silent unless requested, and cycles are rejected.
func TestRequiresResultOf(t *testing.T) {
	prog := newFixture(t)
	pa := checkPkg(t, prog, "a")

	base := &analysis.Analyzer{
		Name: "base",
		Doc:  "produces a result and a diagnostic",
	}
	base.Run = func(pass *analysis.Pass) (interface{}, error) {
		pass.Reportf(pass.Files[0].Pos(), "base diagnostic")
		return 42, nil
	}
	var got interface{}
	user := &analysis.Analyzer{
		Name:     "user",
		Doc:      "consumes base's result",
		Requires: []*analysis.Analyzer{base},
	}
	user.Run = func(pass *analysis.Pass) (interface{}, error) {
		got = pass.ResultOf[base]
		return nil, nil
	}

	findings, err := analysis.NewSession().RunPackage(prog.Fset, pa, []*analysis.Analyzer{user})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("ResultOf[base] = %v, want 42", got)
	}
	if hasFinding(findings, "base diagnostic") {
		t.Error("diagnostics of a merely-required analyzer were reported")
	}

	// Requesting both surfaces base's diagnostics too.
	findings, err = analysis.NewSession().RunPackage(prog.Fset, pa, []*analysis.Analyzer{base, user})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(findings, "base diagnostic") {
		t.Error("requested analyzer's diagnostics missing")
	}

	// Cycles are a hard error.
	x := &analysis.Analyzer{Name: "x", Doc: "cyclic"}
	y := &analysis.Analyzer{Name: "y", Doc: "cyclic", Requires: []*analysis.Analyzer{x}}
	x.Requires = []*analysis.Analyzer{y}
	x.Run = func(*analysis.Pass) (interface{}, error) { return nil, nil }
	y.Run = x.Run
	if _, err := analysis.NewSession().RunPackage(prog.Fset, pa, []*analysis.Analyzer{x}); err == nil {
		t.Error("dependency cycle not rejected")
	}
}

// TestUndeclaredFactRejected: exporting a fact type missing from
// FactTypes is an analyzer bug and must fail loudly.
func TestUndeclaredFactRejected(t *testing.T) {
	prog := newFixture(t)
	pa := checkPkg(t, prog, "a")
	bad := &analysis.Analyzer{Name: "bad", Doc: "exports an undeclared fact"}
	bad.Run = func(pass *analysis.Pass) (interface{}, error) {
		defer func() {
			if recover() == nil {
				t.Error("export of undeclared fact type did not panic")
			}
		}()
		pass.ExportObjectFact(pass.Pkg.Scope().Lookup("Marked"), &markFact{})
		return nil, nil
	}
	if _, err := analysis.NewSession().RunPackage(prog.Fset, pa, []*analysis.Analyzer{bad}); err != nil {
		t.Fatal(err)
	}
}

func hasFinding(fs []analysis.Finding, substr string) bool {
	for _, f := range fs {
		if strings.Contains(f.Message, substr) {
			return true
		}
	}
	return false
}

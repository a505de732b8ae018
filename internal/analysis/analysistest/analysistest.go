// Package analysistest mirrors golang.org/x/tools/go/analysis/analysistest
// for the in-repo analysis subset: it runs one analyzer over a
// GOPATH-style testdata tree (testdata/src/<pkg>/*.go), matching reported
// diagnostics against `// want "regexp"` comments, and can verify
// suggested fixes against committed .golden files.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"smores/internal/analysis"
	"smores/internal/analysis/load"
)

// TestData returns the absolute path of the caller package's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run analyzes the named packages under dir/src and checks diagnostics
// against want comments. It returns the findings for further assertions.
//
// All named packages share one loader program and one driver session:
// a fixture package may import an earlier-listed sibling by its bare
// path, and facts the analyzer exports while running on that sibling
// are importable when the dependent is analyzed — list dependency
// packages first, exactly as a real driver feeds packages in
// dependency order.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) []analysis.Finding {
	t.Helper()
	return runAll(t, dir, a, pkgs, false)
}

// RunWithSuggestedFixes is Run plus golden-file verification: after
// matching diagnostics, every file that received fixes is rewritten in
// memory and compared byte-for-byte with <file>.golden.
func RunWithSuggestedFixes(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) []analysis.Finding {
	t.Helper()
	return runAll(t, dir, a, pkgs, true)
}

// RunExpectingNoWants analyzes the named packages in a fresh session
// but skips want-comment matching and golden files, returning the raw
// findings. It exists for negative fact tests: run only the dependent
// package of a cross-package fixture and assert zero findings, proving
// the fixture's want comments hinge on facts from the dependency rather
// than matching vacuously.
func RunExpectingNoWants(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) []analysis.Finding {
	t.Helper()
	return run(t, dir, a, pkgs, false, false)
}

func runAll(t *testing.T, dir string, a *analysis.Analyzer, pkgs []string, fixes bool) []analysis.Finding {
	t.Helper()
	return run(t, dir, a, pkgs, fixes, true)
}

func run(t *testing.T, dir string, a *analysis.Analyzer, pkgs []string, fixes, matchWants bool) []analysis.Finding {
	t.Helper()
	srcRoot := filepath.Join(dir, "src")
	prog := load.NewProgram(srcRoot)
	prog.SrcRoot = srcRoot
	session := analysis.NewSession()
	var all []analysis.Finding
	for _, pkg := range pkgs {
		all = append(all, runOne(t, prog, session, srcRoot, a, pkg, fixes, matchWants)...)
	}
	return all
}

func runOne(t *testing.T, prog *load.Program, session *analysis.Session, srcRoot string, a *analysis.Analyzer, pkg string, fixes, matchWants bool) []analysis.Finding {
	t.Helper()
	pkgDir := filepath.Join(srcRoot, pkg)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files in %s", pkg, pkgDir)
	}
	loaded, err := prog.CheckAdHoc(pkg, pkgDir, files)
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	findings, err := session.RunPackage(prog.Fset, loaded, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: analyzer: %v", pkg, err)
	}
	if !matchWants {
		return findings
	}

	wants := make(map[string][]*wantSpec) // file:line → specs
	for _, fname := range files {
		full := filepath.Join(pkgDir, fname)
		src, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		for line, specs := range parseWants(t, full, string(src)) {
			wants[fmt.Sprintf("%s:%d", full, line)] = specs
		}
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pkg, f)
		}
	}
	for key, specs := range wants {
		for _, w := range specs {
			if !w.matched {
				t.Errorf("%s: no diagnostic at %s matching %q", pkg, key, w.re)
			}
		}
	}

	if fixes {
		checkFixes(t, pkg, pkgDir, files, findings)
	}
	return findings
}

func checkFixes(t *testing.T, pkg, pkgDir string, files []string, findings []analysis.Finding) {
	t.Helper()
	for _, fname := range files {
		full := filepath.Join(pkgDir, fname)
		goldenPath := full + ".golden"
		golden, err := os.ReadFile(goldenPath)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := analysis.ApplyFixesToSource(src, full, findings)
		if err != nil {
			t.Errorf("%s: applying fixes to %s: %v", pkg, fname, err)
			continue
		}
		if string(fixed) != string(golden) {
			t.Errorf("%s: fixed %s does not match %s:\n--- got ---\n%s\n--- want ---\n%s",
				pkg, fname, filepath.Base(goldenPath), fixed, golden)
		}
	}
}

type wantSpec struct {
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts `// want "re" "re"...` comments per source line.
func parseWants(t *testing.T, file, src string) map[int][]*wantSpec {
	t.Helper()
	out := make(map[int][]*wantSpec)
	for i, line := range strings.Split(src, "\n") {
		idx := strings.Index(line, "// want ")
		if idx < 0 {
			continue
		}
		rest := strings.TrimSpace(line[idx+len("// want "):])
		for rest != "" {
			lit, remainder, err := scanStringLit(rest)
			if err != nil {
				t.Fatalf("%s:%d: malformed want comment: %v", file, i+1, err)
			}
			re, err := regexp.Compile(lit)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", file, i+1, lit, err)
			}
			out[i+1] = append(out[i+1], &wantSpec{re: re})
			rest = strings.TrimSpace(remainder)
		}
	}
	return out
}

// scanStringLit consumes one Go string literal (quoted or backquoted)
// from the front of s.
func scanStringLit(s string) (value, rest string, err error) {
	if s == "" {
		return "", "", fmt.Errorf("empty literal")
	}
	quote := s[0]
	if quote != '"' && quote != '`' {
		return "", "", fmt.Errorf("expected string literal, got %q", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' && quote == '"' {
			i++
			continue
		}
		if s[i] == quote {
			lit := s[:i+1]
			v, err := strconv.Unquote(lit)
			if err != nil {
				return "", "", err
			}
			return v, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated string literal in %q", s)
}

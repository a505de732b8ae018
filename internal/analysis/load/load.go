// Package load type-checks Go packages for the analysis driver without
// golang.org/x/tools/go/packages: it shells out to `go list -deps -json`
// for build-system metadata (file sets, import graphs, build-constraint
// filtering) and runs the standard library type checker over the result.
//
// Dependency packages — everything the lint targets import, including
// the standard library — are checked with IgnoreFuncBodies, so a full
// `./...` load stays in the low seconds. Target packages keep full
// bodies and complete types.Info maps, which is what the analyzers
// consume. CGO is disabled for the load so the pure-Go file sets are
// selected and no C toolchain is required.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded (and, for non-DepOnly packages, fully
// type-checked) Go package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
	// DepOnly marks packages pulled in only as dependencies of the
	// requested patterns; they are type-checked without function bodies
	// and carry no syntax or info maps.
	DepOnly bool

	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Program is a set of loaded packages sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // target packages, in go list order
	// SrcRoot, when set, names a GOPATH-style source root (an
	// analysistest testdata/src directory): imports that go list cannot
	// resolve are looked up as SrcRoot/<importpath> ad-hoc packages, so
	// multi-package fixtures can import their siblings by bare path.
	SrcRoot string
	byPath  map[string]*types.Package
	dir     string
}

// listedPackage mirrors the `go list -json` fields we consume.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -deps -json` for patterns in dir.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Imports,Standard,DepOnly,Error",
		"--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Pure-Go file sets: the type checker has no C compiler to lean on.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load lists patterns from dir and type-checks every resulting package.
// Packages returns only the pattern-matched (non-DepOnly) packages.
func Load(dir string, patterns []string) (*Program, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*types.Package),
		dir:    dir,
	}
	// `go list -deps` emits dependencies before dependents, so a single
	// forward sweep sees every import already checked.
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if err := prog.check(lp); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// Import implements types.Importer against the already-checked set.
func (p *Program) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := p.byPath[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("load: package %q not in dependency closure", path)
}

// ensure loads path (and its dependency closure) if not yet checked.
func (p *Program) ensure(path string) error {
	if path == "unsafe" {
		return nil
	}
	if _, ok := p.byPath[path]; ok {
		return nil
	}
	// A sibling fixture package under the GOPATH-style source root wins
	// over go list: testdata packages are not addressable by module
	// path, and dependency-fixture bodies must be fully checked so the
	// analyzers can compute facts over them.
	if p.SrcRoot != "" {
		dir := filepath.Join(p.SrcRoot, filepath.FromSlash(path))
		if entries, err := os.ReadDir(dir); err == nil {
			var files []string
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
					files = append(files, e.Name())
				}
			}
			if len(files) > 0 {
				_, err := p.CheckAdHoc(path, dir, files)
				return err
			}
		}
	}
	listed, err := goList(p.dir, []string{path})
	if err != nil {
		return err
	}
	for _, lp := range listed {
		if lp.Error != nil {
			return fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		lp.DepOnly = true // closure members of an ad-hoc check are deps
		if err := p.check(lp); err != nil {
			return err
		}
	}
	return nil
}

// check parses and type-checks one listed package.
func (p *Program) check(lp *listedPackage) error {
	if lp.ImportPath == "unsafe" {
		p.byPath["unsafe"] = types.Unsafe
		return nil
	}
	if _, done := p.byPath[lp.ImportPath]; done {
		return nil
	}
	var files []*ast.File
	for _, f := range lp.GoFiles {
		af, err := parser.ParseFile(p.Fset, filepath.Join(lp.Dir, f), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %v", filepath.Join(lp.Dir, f), err)
		}
		files = append(files, af)
	}
	tpkg, info, err := p.typeCheck(lp.ImportPath, files, lp.DepOnly)
	if err != nil {
		return err
	}
	p.byPath[lp.ImportPath] = tpkg
	pkg := &Package{
		ImportPath: lp.ImportPath,
		Name:       lp.Name,
		Dir:        lp.Dir,
		GoFiles:    lp.GoFiles,
		Imports:    lp.Imports,
		Standard:   lp.Standard,
		DepOnly:    lp.DepOnly,
		Types:      tpkg,
	}
	if !lp.DepOnly {
		pkg.Syntax = files
		pkg.Info = info
		p.Packages = append(p.Packages, pkg)
	}
	return nil
}

func (p *Program) typeCheck(path string, files []*ast.File, depOnly bool) (*types.Package, *types.Info, error) {
	conf := types.Config{
		Importer:         p,
		IgnoreFuncBodies: depOnly,
		FakeImportC:      true,
		// Standard-library sources occasionally trip go/types on exotic
		// constructs when loaded standalone; collect errors for deps and
		// fail only on target packages, where analyzers need full types.
		Error: func(error) {},
	}
	var firstErr error
	if !depOnly {
		conf.Error = func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	var info *types.Info
	if !depOnly {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
			Implicits:  make(map[ast.Node]types.Object),
		}
	}
	conf.Sizes = types.SizesFor("gc", runtime.GOARCH)
	tpkg, err := conf.Check(path, p.Fset, files, info)
	if !depOnly {
		if firstErr != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", path, firstErr)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
	}
	return tpkg, info, nil
}

// CheckAdHoc type-checks a directory of Go files that is not part of any
// module (an analysistest testdata package): it parses every listed file,
// loads each import's closure via `go list`, and checks with full bodies
// and info maps. importPath names the resulting package (convention:
// the testdata package name).
func (p *Program) CheckAdHoc(importPath, dir string, filenames []string) (*Package, error) {
	sort.Strings(filenames)
	var files []*ast.File
	for _, f := range filenames {
		af, err := parser.ParseFile(p.Fset, filepath.Join(dir, f), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", filepath.Join(dir, f), err)
		}
		files = append(files, af)
	}
	for _, af := range files {
		for _, imp := range af.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if err := p.ensure(path); err != nil {
				return nil, err
			}
		}
	}
	tpkg, info, err := p.typeCheck(importPath, files, false)
	if err != nil {
		return nil, err
	}
	name := ""
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	// Register so sibling ad-hoc packages (and the fact store) can
	// resolve this package by its import path.
	p.byPath[importPath] = tpkg
	return &Package{
		ImportPath: importPath,
		Name:       name,
		Dir:        dir,
		GoFiles:    filenames,
		Syntax:     files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// NewProgram returns an empty program rooted at dir, for ad-hoc checks.
func NewProgram(dir string) *Program {
	return &Program{
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*types.Package),
		dir:    dir,
	}
}

// compile-time check that importer interfaces stay satisfied.
var _ types.Importer = (*Program)(nil)

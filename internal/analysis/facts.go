package analysis

// The fact store. Facts cross package boundaries the way upstream
// go/analysis facts do in a save/load driver: every exported fact is
// gob-encoded at export time under a stable object key, and imports
// decode from those blobs. Serializing eagerly — even though a single
// smores-lint process could have passed pointers around in memory —
// buys two properties: fact types are proven gob-round-trippable the
// moment an analyzer first exports one, and the analyzers cannot
// accidentally communicate through shared mutable state.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// objKey returns a stable, serialization-friendly key for an object a
// fact may attach to: package-scope declarations ("o/Name"), methods
// ("m/Type/Name"), and struct fields ("f/Type/Path.To.Field"). Objects
// without a stable path (locals, builtins) report ok=false and cannot
// carry facts.
func objKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	// Package-scope declaration?
	if obj.Pkg().Scope().Lookup(obj.Name()) == obj {
		return "o/" + obj.Name(), true
	}
	// Method?
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := namedOf(recv.Type()); named != nil {
				return "m/" + named.Obj().Name() + "/" + fn.Name(), true
			}
		}
		return "", false
	}
	// Struct field: search the owning package's named structs.
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		scope := obj.Pkg().Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			if path, found := fieldPath(st, v, nil); found {
				return "f/" + name + "/" + strings.Join(path, "."), true
			}
		}
	}
	return "", false
}

// fieldPath locates target within st (descending into nested anonymous
// struct types) and returns the dotted field-name path.
func fieldPath(st *types.Struct, target *types.Var, prefix []string) ([]string, bool) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		path := append(append([]string(nil), prefix...), f.Name())
		if f == target {
			return path, true
		}
		if inner, ok := f.Type().Underlying().(*types.Struct); ok {
			if p, found := fieldPath(inner, target, path); found {
				return p, true
			}
		}
	}
	return nil, false
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// resolveKey is the inverse of objKey within pkg.
func resolveKey(pkg *types.Package, key string) types.Object {
	kind, rest, ok := strings.Cut(key, "/")
	if !ok {
		return nil
	}
	switch kind {
	case "o":
		return pkg.Scope().Lookup(rest)
	case "m":
		tname, mname, ok := strings.Cut(rest, "/")
		if !ok {
			return nil
		}
		tn, _ := pkg.Scope().Lookup(tname).(*types.TypeName)
		if tn == nil {
			return nil
		}
		named, _ := tn.Type().(*types.Named)
		if named == nil {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == mname {
				return m
			}
		}
	case "f":
		tname, fpath, ok := strings.Cut(rest, "/")
		if !ok {
			return nil
		}
		tn, _ := pkg.Scope().Lookup(tname).(*types.TypeName)
		if tn == nil {
			return nil
		}
		st, _ := tn.Type().Underlying().(*types.Struct)
		parts := strings.Split(fpath, ".")
		var cur *types.Var
		for i, fname := range parts {
			if st == nil {
				return nil
			}
			cur = nil
			for j := 0; j < st.NumFields(); j++ {
				if st.Field(j).Name() == fname {
					cur = st.Field(j)
					break
				}
			}
			if cur == nil {
				return nil
			}
			if i < len(parts)-1 {
				st, _ = cur.Type().Underlying().(*types.Struct)
			}
		}
		return cur
	}
	return nil
}

// factStore holds the sealed (gob-encoded) facts of every analyzed
// package, per analyzer. The empty object key "" holds the package
// fact.
type factStore struct {
	// blobs: analyzer name → package path → object key → gob blob.
	blobs map[string]map[string]map[string][]byte
	// pkgs maps package paths to their type-checker packages, for
	// decoding object keys on import.
	pkgs map[string]*types.Package
}

func newFactStore() *factStore {
	return &factStore{
		blobs: make(map[string]map[string]map[string][]byte),
		pkgs:  make(map[string]*types.Package),
	}
}

func (s *factStore) bucket(analyzer, pkgPath string) map[string][]byte {
	byPkg := s.blobs[analyzer]
	if byPkg == nil {
		byPkg = make(map[string]map[string][]byte)
		s.blobs[analyzer] = byPkg
	}
	b := byPkg[pkgPath]
	if b == nil {
		b = make(map[string][]byte)
		byPkg[pkgPath] = b
	}
	return b
}

// declared reports whether the analyzer declared fact's concrete type.
func declared(a *Analyzer, fact Fact) bool {
	ft := reflect.TypeOf(fact)
	for _, d := range a.FactTypes {
		if reflect.TypeOf(d) == ft {
			return true
		}
	}
	return false
}

func encodeFact(a *Analyzer, fact Fact) ([]byte, error) {
	if fact == nil {
		return nil, fmt.Errorf("nil fact")
	}
	if reflect.TypeOf(fact).Kind() != reflect.Ptr {
		return nil, fmt.Errorf("fact type %T is not a pointer", fact)
	}
	if !declared(a, fact) {
		return nil, fmt.Errorf("fact type %T not declared in %s.FactTypes", fact, a.Name)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		return nil, fmt.Errorf("fact type %T is not gob-serializable: %v", fact, err)
	}
	return buf.Bytes(), nil
}

func decodeFact(blob []byte, fact Fact) error {
	return gob.NewDecoder(bytes.NewReader(blob)).Decode(fact)
}

// export seals one fact. key "" is the package fact.
func (s *factStore) export(a *Analyzer, pkg *types.Package, key string, fact Fact) error {
	blob, err := encodeFact(a, fact)
	if err != nil {
		return err
	}
	s.pkgs[pkg.Path()] = pkg
	s.bucket(a.Name, pkg.Path())[key] = blob
	return nil
}

// lookup decodes the fact for (analyzer, pkg, key) into fact.
func (s *factStore) lookup(a *Analyzer, pkgPath, key string, fact Fact) bool {
	if !declared(a, fact) {
		return false
	}
	byPkg := s.blobs[a.Name]
	if byPkg == nil {
		return false
	}
	blob, ok := byPkg[pkgPath][key]
	if !ok {
		return false
	}
	return decodeFact(blob, fact) == nil
}

// allObjectFacts enumerates decoded object facts for one analyzer
// across every sealed package, sorted by (package, key) for
// deterministic iteration.
func (s *factStore) allObjectFacts(a *Analyzer) []ObjectFact {
	byPkg := s.blobs[a.Name]
	var out []ObjectFact
	paths := make([]string, 0, len(byPkg))
	for p := range byPkg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		pkg := s.pkgs[path]
		if pkg == nil {
			continue
		}
		keys := make([]string, 0, len(byPkg[path]))
		for k := range byPkg[path] {
			if k != "" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			obj := resolveKey(pkg, k)
			if obj == nil {
				continue
			}
			fact := newFactOfAny(a, byPkg[path][k])
			if fact == nil {
				continue
			}
			out = append(out, ObjectFact{Object: obj, Fact: fact})
		}
	}
	return out
}

// allPackageFacts enumerates decoded package facts for one analyzer.
func (s *factStore) allPackageFacts(a *Analyzer) []PackageFact {
	byPkg := s.blobs[a.Name]
	var out []PackageFact
	paths := make([]string, 0, len(byPkg))
	for p := range byPkg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		blob, ok := byPkg[path][""]
		if !ok {
			continue
		}
		pkg := s.pkgs[path]
		if pkg == nil {
			continue
		}
		fact := newFactOfAny(a, blob)
		if fact == nil {
			continue
		}
		out = append(out, PackageFact{Package: pkg, Fact: fact})
	}
	return out
}

// newFactOfAny decodes blob into a fresh value of whichever declared
// fact type accepts it. With a single declared type (the common case)
// this is exact; with several, gob's struct-name check disambiguates.
func newFactOfAny(a *Analyzer, blob []byte) Fact {
	for _, d := range a.FactTypes {
		fv := reflect.New(reflect.TypeOf(d).Elem()).Interface().(Fact)
		if decodeFact(blob, fv) == nil {
			return fv
		}
	}
	return nil
}

package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// testOnly names the internal exports that only their own package's
// tests reference and that stay anyway, each with its reason. An entry
// is a test reference or an oracle, nothing else; keep the list short.
var testOnly = map[string]string{
	"circuit.LadderFor":                 "TestLadderJustifiesLumpedFactor validates Wire.RCFactor against the RC ladder",
	"circuit.RCLadder.Elmore":           "TestLadderJustifiesLumpedFactor validates Wire.RCFactor against the RC ladder",
	"circuit.RCLadder.DistributedLimit": "TestLadderJustifiesLumpedFactor validates Wire.RCFactor against the RC ladder",
	"core.CacheConfig.EffectiveAssoc":   "oracle: tests check the way-disabling schemes against it",
	"cpu.Cache.NumSets":                 "oracle: tests check the cache geometry against it",
	"ssta.Correlation":                  "oracle: tests check the canonical forms' correlation against it",
	"stats.SeedJumpEnabled":             "tests assert that the O(1) reseed is active",
}

// checkDeadExports reports each exported identifier of an internal/
// package, and each exported method of its exported types, that neither
// non-test code nor another package's tests reference. A method whose
// name an interface declares (the module's, an imported standard
// library package's, error's and Unwrap) counts as referenced. allow
// exempts a name such as "stats.SeedJumpEnabled"; an entry that names
// no export, or one that is referenced after all, is a problem too.
func checkDeadExports(root string, allow map[string]string) []string {
	l, err := load(root)
	if err != nil {
		return []string{err.Error()}
	}
	ifaceMethods := map[string]bool{"Error": true, "Unwrap": true}
	addIface := func(t types.Type) {
		if it, ok := t.(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	for _, p := range l.std {
		for _, name := range p.Scope().Names() {
			if obj := p.Scope().Lookup(name); obj.Exported() {
				addIface(obj.Type().Underlying())
			}
		}
	}
	refs := make(map[string]bool)
	for _, u := range l.units {
		for _, f := range u.files {
			test := strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go")
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok && !test {
					addIface(u.info.TypeOf(it))
				} else if id, ok := n.(*ast.Ident); ok {
					if obj := u.info.Uses[id]; obj != nil && obj.Pkg() != nil && (!test || obj.Pkg().Path() != u.owner) {
						refs[l.key(obj)] = true
					}
				}
				return true
			})
		}
	}

	// exported maps each candidate to whether a reference must keep it.
	exported := make(map[string]bool)
	for _, p := range l.pkgs {
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if l.key(obj) == "" {
				continue
			}
			exported[l.key(obj)] = true
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named := tn.Type().(*types.Named)
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						exported[l.key(m)] = !ifaceMethods[m.Name()]
					}
				}
			}
		}
	}
	var out []string
	for k, mustRef := range exported {
		dead := mustRef && !refs[k]
		if _, ok := allow[k]; dead && !ok {
			out = append(out, fmt.Sprintf("export %s has no reference outside its own package's tests: delete it, or allowlist it with a reason", k))
		} else if ok && !dead {
			out = append(out, fmt.Sprintf("allowlist entry %s is not needed: code outside its package's tests references it", k))
		}
	}
	for k := range allow {
		if _, ok := exported[k]; !ok {
			out = append(out, fmt.Sprintf("allowlist entry %s names no exported identifier of an internal package", k))
		}
	}
	sort.Strings(out)
	return out
}

// stdImporter reads the standard library's export data. One instance
// serves every check, so a package imported twice is one *types.Package.
var stdImporter = importer.Default()

// loader type-checks a module with its tests. It is the types.Importer
// of every check: a module package resolves to its non-test variant
// (pkgs), anything else to the standard library (std).
type loader struct {
	module    string
	fset      *token.FileSet
	bps       map[string]*build.Package // import path → the module's packages
	pkgs, std map[string]*types.Package
	units     []unit
}

// unit is one type-checked file set: a package, its in-package test
// variant or its external test package. owner is the import path of
// the package under test, so its own tests' references can be told
// apart from everyone else's.
type unit struct {
	owner string
	files []*ast.File
	info  *types.Info
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// load type-checks every package of the module at root (testdata, dot
// and underscore directories excluded) with its tests.
func load(root string) (*loader, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	m := moduleLine.FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("no module line in %s (%v)", filepath.Join(root, "go.mod"), err)
	}
	l := &loader{module: string(m[1]), fset: token.NewFileSet(), bps: map[string]*build.Package{},
		pkgs: map[string]*types.Package{}, std: map[string]*types.Package{}}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		rel, _ := filepath.Rel(root, dir)
		l.bps[strings.TrimSuffix(l.module+"/"+filepath.ToSlash(rel), "/.")] = bp
		return err
	})
	for path := range l.bps {
		if err == nil {
			_, err = l.Import(path)
		}
	}
	for path, bp := range l.bps {
		if err != nil || len(bp.TestGoFiles)+len(bp.XTestGoFiles) == 0 {
			continue
		}
		// The external test package imports the test variant, as go test builds it.
		pkg := l.pkgs[path]
		l.pkgs[path], err = l.check(path, path, bp.Dir, append(bp.GoFiles[:len(bp.GoFiles):len(bp.GoFiles)], bp.TestGoFiles...))
		if err == nil && len(bp.XTestGoFiles) > 0 {
			_, err = l.check(path+"_test", path, bp.Dir, bp.XTestGoFiles)
		}
		l.pkgs[path] = pkg
	}
	return l, err
}

// Import returns the type-checked package at path, checking a module
// package, and the module packages it imports, on first use.
func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	if bp := l.bps[path]; bp != nil {
		p, err := l.check(path, path, bp.Dir, bp.GoFiles)
		l.pkgs[path] = p
		return p, err
	}
	p, err := stdImporter.Import(path)
	if err == nil {
		l.std[path] = p
	}
	return p, err
}

func (l *loader) check(path, owner, dir string, names []string) (*types.Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	l.units = append(l.units, unit{owner: owner, files: files, info: info})
	return p, nil
}

// key names an exported package-level object or method of an internal
// package as the gate reports it ("stats.RNG.Uniform"), or returns ""
// for anything else.
func (l *loader) key(obj types.Object) string {
	short, ok := strings.CutPrefix(obj.Pkg().Path(), l.module+"/internal/")
	if !ok || !obj.Exported() {
		return ""
	}
	if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		t := f.Origin().Type().(*types.Signature).Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return short + "." + named.Obj().Name() + "." + f.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return short + "." + obj.Name()
}

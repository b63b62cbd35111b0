// Command docgate is the documentation gate run by scripts/check.sh and
// CI. It enforces four invariants:
//
//  1. Every exported identifier of the root yieldcache package (types,
//     funcs, methods, const/var groups) carries a doc comment — the
//     facade is the public API, and godoc is its reference.
//  2. Every CLI flag shown in a fenced code block of README.md or
//     docs/*.md is actually defined by the command it is shown with, so
//     the documentation cannot drift from the flag definitions.
//  3. Every metric name passed as a complete string literal to obs.C,
//     obs.G or obs.H (bare C/G/H inside package obs) in non-test Go is
//     listed in docs/API.md, so no series ships undocumented. A
//     {label=...} suffix is stripped first; names built by
//     concatenation are skipped.
//  4. Every exported identifier of an internal/ package, and every
//     exported method of its exported types, is referenced by non-test
//     code or by another package's tests (see checkDeadExports and its
//     short testOnly allowlist), so nothing is kept alive only by its
//     own tests.
//
// Usage: go run ./scripts/docgate [repo-root]   (default ".")
//
// Exit status 1 with one line per violation when any check fails.
package main

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkRootDocs(root)...)
	problems = append(problems, checkFlagSync(root)...)
	problems = append(problems, checkMetricDocs(root)...)
	problems = append(problems, checkDeadExports(root, testOnly)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docgate: "+p)
		}
		fmt.Fprintf(os.Stderr, "docgate: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docgate: root-package godoc complete, docs flags in sync, metrics documented, no test-only internal exports")
}

// checkRootDocs reports exported identifiers of the root package that
// lack doc comments.
func checkRootDocs(root string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, root, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("parsing root package: %v", err)}
	}
	astPkg, ok := pkgs["yieldcache"]
	if !ok {
		return []string{"root package yieldcache not found"}
	}
	d := doc.New(astPkg, "yieldcache", 0)

	var out []string
	report := func(kind, name string) {
		out = append(out, fmt.Sprintf("undocumented exported %s: %s", kind, name))
	}
	if d.Doc == "" {
		report("package", "yieldcache")
	}
	for _, f := range d.Funcs {
		if ast.IsExported(f.Name) && f.Doc == "" {
			report("func", f.Name)
		}
	}
	for _, t := range d.Types {
		if ast.IsExported(t.Name) && t.Doc == "" {
			report("type", t.Name)
		}
		for _, f := range t.Funcs {
			if ast.IsExported(f.Name) && f.Doc == "" {
				report("func", f.Name)
			}
		}
		for _, m := range t.Methods {
			if ast.IsExported(m.Name) && m.Doc == "" {
				report("method", t.Name+"."+m.Name)
			}
		}
		out = append(out, checkValueGroups(t.Consts, "const")...)
		out = append(out, checkValueGroups(t.Vars, "var")...)
	}
	out = append(out, checkValueGroups(d.Consts, "const")...)
	out = append(out, checkValueGroups(d.Vars, "var")...)
	sort.Strings(out)
	return out
}

// checkValueGroups reports const/var declaration groups with exported
// names where neither the group nor any spec carries a comment.
func checkValueGroups(values []*doc.Value, kind string) []string {
	var out []string
	for _, v := range values {
		if v.Doc != "" {
			continue
		}
		exported := ""
		for _, name := range v.Names {
			if ast.IsExported(name) {
				exported = name
				break
			}
		}
		if exported != "" {
			out = append(out, fmt.Sprintf("undocumented exported %s group: %s", kind, exported))
		}
	}
	return out
}

// flagCall maps flag-registration method names to the argument index of
// the flag-name string literal.
var flagCall = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1, "UintVar": 1,
}

// obsFlags are registered by obs.AddFlags and shared by the batch CLIs.
var obsFlags = []string{"metrics-out", "trace-out", "manifest-out", "pprof", "log-format"}

// commandFlags parses one command's main.go and returns the set of flag
// names it defines.
func commandFlags(mainPath string) (map[string]bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, mainPath, nil, 0)
	if err != nil {
		return nil, err
	}
	flags := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); ok && recv.Name == "obs" && sel.Sel.Name == "AddFlags" {
			for _, name := range obsFlags {
				flags[name] = true
			}
			return true
		}
		argIdx, ok := flagCall[sel.Sel.Name]
		if !ok || len(call.Args) <= argIdx {
			return true
		}
		if lit, ok := call.Args[argIdx].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				flags[name] = true
			}
		}
		return true
	})
	return flags, nil
}

var flagToken = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)

// checkFlagSync verifies that every -flag shown next to a command name
// inside a fenced code block of README.md or docs/*.md is defined by
// that command.
func checkFlagSync(root string) []string {
	cmdDirs, err := filepath.Glob(filepath.Join(root, "cmd", "*"))
	if err != nil || len(cmdDirs) == 0 {
		return []string{"no cmd/* directories found"}
	}
	defined := make(map[string]map[string]bool)
	for _, dir := range cmdDirs {
		name := filepath.Base(dir)
		flags, err := commandFlags(filepath.Join(dir, "main.go"))
		if err != nil {
			return []string{fmt.Sprintf("parsing %s: %v", dir, err)}
		}
		defined[name] = flags
	}

	docFiles, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	docFiles = append(docFiles, filepath.Join(root, "README.md"))
	var out []string
	for _, path := range docFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			out = append(out, fmt.Sprintf("reading %s: %v", path, err))
			continue
		}
		rel := strings.TrimPrefix(path, root+string(filepath.Separator))
		inCode := false
		for lineNo, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inCode = !inCode
				continue
			}
			if !inCode {
				continue
			}
			cmd := commandOnLine(line, defined)
			if cmd == "" {
				continue
			}
			for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
				if !defined[cmd][m[1]] {
					out = append(out, fmt.Sprintf("%s:%d: flag -%s is not defined by cmd/%s",
						rel, lineNo+1, m[1], cmd))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// commandOnLine returns the single command a code line refers to (via
// ./cmd/<name> or a usage line starting with <name>), or "" when none
// or several match — ambiguous lines are skipped rather than guessed.
func commandOnLine(line string, defined map[string]map[string]bool) string {
	trimmed := strings.TrimSpace(line)
	found := ""
	for name := range defined {
		if strings.Contains(line, "cmd/"+name) ||
			strings.HasPrefix(trimmed, name+" ") || trimmed == name {
			if found != "" {
				return ""
			}
			found = name
		}
	}
	return found
}

// metricCall matches a registry accessor called with one complete
// string literal: obs.C/G/H anywhere, bare C/G/H inside package obs. A
// literal followed by "+" (a name built by concatenation) never matches.
var metricCall = regexp.MustCompile(`(obs\.|[^.\w])[CGH]\((?:"([a-z0-9_]+)[^"]*"|` +
	"`([a-z0-9_]+)[^`]*`" + `)\s*[,)]`)

// checkMetricDocs reports metric names registered through a string
// literal in non-test Go that docs/API.md does not mention.
func checkMetricDocs(root string) []string {
	raw, err := os.ReadFile(filepath.Join(root, "docs", "API.md"))
	if err != nil {
		return []string{fmt.Sprintf("reading docs/API.md: %v", err)}
	}
	api := string(raw)
	var out []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		inObs := filepath.Base(filepath.Dir(path)) == "obs"
		for lineNo, line := range strings.Split(string(src), "\n") {
			for _, m := range metricCall.FindAllStringSubmatch(line, -1) {
				name := m[2] + m[3]
				documented := strings.Contains(api, "`"+name+"`") || strings.Contains(api, "`"+name+"{")
				if (m[1] == "obs." || inObs) && !documented {
					out = append(out, fmt.Sprintf("%s:%d: metric %s is not listed in docs/API.md",
						strings.TrimPrefix(path, root+string(filepath.Separator)), lineNo+1, name))
				}
			}
		}
		return nil
	})
	if err != nil {
		out = append(out, fmt.Sprintf("scanning Go sources: %v", err))
	}
	sort.Strings(out)
	return out
}

// Command doclint enforces the documentation contract of the hot-path
// packages: every exported identifier — package, type, function, method,
// const/var, struct field, and interface method — must carry a doc comment.
// The batched runtime leans on documented ownership and concurrency rules
// (who may touch a buffer, which goroutine drives an operator), so an
// undocumented export is treated as a defect, not a style nit.
//
// Usage:
//
//	doclint ./internal/runtime ./internal/exec ./internal/xmlstream
//
// Each argument is a package directory (test files are skipped). A group
// declaration's doc covers all its specs; a spec- or field-level line
// comment also counts. Exit status 1 reports at least one finding, with
// file:line locations on stdout.
//
// With -refs the arguments are markdown documents instead, checked from the
// repository root for dangling references (see lintRefs):
//
//	doclint -refs DESIGN.md PERFORMANCE.md README.md
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: doclint <package dir>... | doclint -refs <document.md>...\n")
		flag.PrintDefaults()
	}
	refs := flag.Bool("refs", false, "check the given markdown documents for references to files and tests that do not exist")
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *refs {
		if n := lintRefs(flag.Args()); n > 0 {
			fmt.Printf("doclint: %d dangling reference(s)\n", n)
			os.Exit(1)
		}
		return
	}
	findings := 0
	for _, dir := range flag.Args() {
		findings += lintDir(dir)
	}
	if findings > 0 {
		fmt.Printf("doclint: %d undocumented exported identifier(s)\n", findings)
		os.Exit(1)
	}
}

// lintDir parses one package directory and reports undocumented exports.
func lintDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	findings := 0
	report := func(pos token.Pos, what, name string) {
		fmt.Printf("%s: undocumented exported %s %s\n", fset.Position(pos), what, name)
		findings++
	}
	for name, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			fmt.Printf("%s: package %s has no package comment\n", dir, name)
			findings++
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				lintDecl(decl, report)
			}
		}
	}
	return findings
}

// lintDecl checks one top-level declaration, descending into struct fields
// and interface methods of exported types.
func lintDecl(decl ast.Decl, report func(token.Pos, string, string)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedRecv(d) {
			return
		}
		if d.Doc == nil {
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			report(d.Pos(), kind, d.Name.Name)
		}
	case *ast.GenDecl:
		groupDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if !groupDoc && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "type", s.Name.Name)
				}
				lintTypeBody(s, report)
			case *ast.ValueSpec:
				if !groupDoc && s.Doc == nil && s.Comment == nil {
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a function's receiver (if any) is an
// exported type; methods on unexported types are not package API.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// lintTypeBody checks exported struct fields and interface methods of an
// exported type.
func lintTypeBody(s *ast.TypeSpec, report func(token.Pos, string, string)) {
	switch t := s.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			if f.Doc != nil || f.Comment != nil {
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					report(n.Pos(), "field", s.Name.Name+"."+n.Name)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if m.Doc != nil || m.Comment != nil {
				continue
			}
			for _, n := range m.Names {
				if n.IsExported() {
					report(n.Pos(), "interface method", s.Name.Name+"."+n.Name)
				}
			}
		}
	}
}

var (
	// codeSpan is a backticked span that starts like a repository path.
	codeSpan = regexp.MustCompile("`((?:internal|cmd|bench|docs)/[^`]*)`")
	// testName is a Go test, benchmark or fuzz target name; the optional
	// tail marks it as a family (`BenchmarkAblation*`, `TestFoo{A,B}`, `TestBar…`).
	testName = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9]\w*)([{*…]?)`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// lintRefs reports, for each document, every backticked internal/, cmd/,
// bench/ or docs/ path that does not exist under the working directory and
// every Test*/Benchmark*/Fuzz* name no _test.go file declares. A reference
// followed by `{`, `*` or `…` names a family and must be the prefix of
// something that exists; generated paths under bench/out/ are exempt.
func lintRefs(docs []string) int {
	var tests []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testDecl.FindAllSubmatch(src, -1) {
			tests = append(tests, string(m[1]))
		}
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	declared := func(name string, family bool) bool {
		for _, t := range tests {
			if t == name || family && strings.HasPrefix(t, name) {
				return true
			}
		}
		return false
	}

	findings := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if ref, _, _ := strings.Cut(m[1], " "); !pathExists(ref) {
					fmt.Printf("%s:%d: no such path %s\n", doc, i+1, ref)
					findings++
				}
			}
			for _, m := range testName.FindAllStringSubmatch(line, -1) {
				if !declared(m[1], m[2] != "") {
					fmt.Printf("%s:%d: no such test %s\n", doc, i+1, m[1])
					findings++
				}
			}
		}
	}
	return findings
}

// qualified is a package path with an exported identifier attached
// (`internal/cost.DefaultModel`); only the package is looked up.
var qualified = regexp.MustCompile(`\.[A-Z]\w*$`)

// pathExists resolves one path reference: a trailing :line is dropped, and
// a `{`, `*`, `…` or `<` cuts the reference down to a prefix some file or
// directory must start with.
func pathExists(ref string) bool {
	if strings.HasPrefix(ref, "bench/out/") {
		return true
	}
	if i := strings.IndexAny(ref, "{*…<"); i >= 0 {
		matches, _ := filepath.Glob(ref[:i] + "*")
		return len(matches) > 0
	}
	ref, _, _ = strings.Cut(ref, ":")
	_, err := os.Stat(qualified.ReplaceAllString(ref, ""))
	return err == nil
}

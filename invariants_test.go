package streamshare_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"streamshare/internal/testutil"
)

// The design's "one X" rules (one writer per conn, one stage loop, …), the
// hot-path packages' doc comments and the documents' references, checked over
// the type-checked module; TestInvariantsPlanted shows each rule failing.

// Shared by every load, so the standard library is type-checked once.
var (
	fset   = token.NewFileSet()
	stdlib = importer.ForCompiler(fset, "source", nil)
)

type module struct {
	root    string
	files   map[string][]*ast.File    // by import path: non-test files the default build context selects
	info    map[string]*types.Info    // by import path
	checked map[string]*types.Package // by import path
	src     map[string][]byte         // every non-test .go file by slash path, build tags ignored
	nested  []string                  // roots of nested modules (bench/): read as text only
	tests   []string                  // Test/Benchmark/Fuzz functions of every _test.go file
	lits    map[string]bool           // string literals of every non-test .go file, nested modules too
	allowed map[string]string         // callers: functions no production root reaches, and why they stay
}

// load reads the module at root and type-checks each of its packages once.
func load(t *testing.T, root string) *module {
	m := &module{root: root, files: map[string][]*ast.File{}, info: map[string]*types.Info{}, checked: map[string]*types.Package{},
		src: map[string][]byte{}, lits: map[string]bool{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && rel != "." {
			m.nested = append(m.nested, rel+"/")
		}
		if d.IsDir() && rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		} else if d.IsDir() || !strings.HasSuffix(rel, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil || strings.HasSuffix(rel, "_test.go") {
			for _, decl := range testDecl.FindAllSubmatch(src, -1) {
				m.tests = append(m.tests, string(decl[1]))
			}
			return err
		}
		m.src[rel] = src
		var sc scanner.Scanner
		sc.Init(token.NewFileSet().AddFile("", -1, len(src)), src, nil, 0)
		for _, tok, lit := sc.Scan(); tok != token.EOF; _, tok, lit = sc.Scan() {
			if v, err := strconv.Unquote(lit); tok == token.STRING && err == nil {
				m.lits[v] = true
			}
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil || under(rel, m.nested) {
			return err
		}
		f, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
		ip := strings.TrimSuffix("streamshare/"+filepath.ToSlash(filepath.Dir(rel)), "/.")
		m.files[ip] = append(m.files[ip], f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range m.files {
		if _, err := m.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import hands the type checker a module package, checked once, or a stdlib one.
func (m *module) Import(path string) (*types.Package, error) {
	if m.files[path] == nil {
		return stdlib.Import(path)
	}
	if m.checked[path] == nil {
		m.info[path] = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		var err error
		if m.checked[path], err = (&types.Config{Importer: m}).Check(path, fset, m.files[path], m.info[path]); err != nil {
			return nil, err
		}
	}
	return m.checked[path], nil
}

// under reports whether path starts with one of prefixes.
func under(path string, prefixes []string) bool {
	return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(path, p) })
}

// named matches the functions and methods called names that pkg ("": any) declares.
func named(pkg string, names ...string) func(types.Object) bool {
	return func(o types.Object) bool {
		_, isFunc := o.(*types.Func)
		return isFunc && slices.Contains(names, o.Name()) && (pkg == "" || o.Pkg() != nil && o.Pkg().Path() == pkg)
	}
}

// calls reports each reference (call, method value or expression, through
// any import name) in the files under dirs to an object match accepts that is
// neither in a declaration allowed names nor in a file under one, and a count
// of allowed references outside [lo, hi] (hi < 0: no upper bound).
func calls(match func(types.Object) bool, dirs []string, lo, hi int, allowed ...string) func(*module) []string {
	return func(m *module) (out []string) {
		n := 0
		for ip, files := range m.files {
			for _, f := range files {
				if dirs != nil && !under(fset.Position(f.Package).Filename, dirs) {
					continue
				}
				for _, d := range f.Decls {
					fn := "" // outside any function
					if d, ok := d.(*ast.FuncDecl); ok {
						fn = strings.ReplaceAll(m.info[ip].Defs[d.Name].(*types.Func).FullName(), ip+".", "") // "(*Link).writer"
					}
					ast.Inspect(d, func(node ast.Node) bool {
						if id, ok := node.(*ast.Ident); ok && match(m.info[ip].Uses[id]) {
							at := fset.Position(id.Pos())
							if slices.ContainsFunc(allowed, func(a string) bool { return a == fn || strings.HasPrefix(at.Filename, a) }) {
								n++
							} else {
								out = append(out, fmt.Sprintf("%s: used in %q", at, fn))
							}
						}
						return true
					})
				}
			}
		}
		if n < lo || hi >= 0 && n > hi {
			out = append(out, fmt.Sprintf("%d allowed uses, want %d to %d", n, lo, hi))
		}
		return out
	}
}

// imports reports each import of one of paths by the file named ("": any).
func imports(file string, paths ...string) func(*module) []string {
	return func(m *module) (out []string) {
		for _, files := range m.files {
			for _, f := range files {
				for _, imp := range f.Imports {
					at := fset.Position(imp.Pos())
					if v, _ := strconv.Unquote(imp.Path.Value); slices.Contains(paths, v) && (file == "" || at.Filename == file) {
						out = append(out, fmt.Sprintf("%s: imports %s", at, v))
					}
				}
			}
		}
		return out
	}
}

// grep reports each line of the non-test files under dirs (the module's, when
// none are given) that re matches: a tombstone for a name deleted code had.
func grep(re string, dirs ...string) func(*module) []string {
	r := regexp.MustCompile(re)
	return func(m *module) (out []string) {
		for path, src := range m.src {
			for i, line := range strings.Split(string(src), "\n") {
				if (under(path, dirs) || dirs == nil && !under(path, m.nested)) && r.MatchString(line) {
					out = append(out, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
				}
			}
		}
		return out
	}
}

var polled = []string{"internal/runtime/", "internal/transport/", "internal/server/"}

// rules are the invariants, each named for what it keeps single.
var rules = []struct {
	name  string
	check func(m *module) []string
}{
	// An attached conn has one writer, the link's (before attach, the handshake
	// half that owns it): a reader that writes can block and stop draining.
	{"writer", calls(named("streamshare/internal/transport", "WriteFrame"), nil, 3, 3, "(*Link).writer", "(*Link).handshakeDial", "(*Mesh).handleIncoming")},
	{"ackwriter", grep(`ackMu|flushAck`, "internal/transport/")},
	// A FEED waits on events: no sleep-and-poll, no ticker but the acker's.
	{"sleep", calls(named("time", "Sleep"), polled, 0, 0)},
	{"ticker", calls(named("time", "NewTicker", "Tick"), polled, 1, 1, "(*Mesh).ackerLoop")},
	// Faults reach the session's queue one way: no detector, heartbeat or deadline.
	{"health", imports("", "streamshare/internal/health")},
	{"deadline", calls(named("", "SetWriteDeadline"), nil, 0, 0)},
	{"liveness", grep(`Heartbeat|gossip|IdleTimeout`)},
	// The handshake negotiates nothing; wire metrics come from the registry.
	{"negotiated", grep(`dictseed|caps\.v|SeedNames|SeededNames|ObserveWire|WireObserver`)},
	// Canonical XML is made for a journal on disk and the codec's raw fallback.
	{"canonical", calls(named("streamshare/internal/xmlstream", "AppendMarshal", "UnmarshalBytes"), nil, 0, -1,
		"internal/xmlstream/", "internal/transport/frame.go", "internal/wire/binary.go")},
	// Control-plane mutations reach other nodes one way: Server.apply's.
	{"mirror", calls(named("", "BroadcastControl"), []string{"internal/server/"}, 0, 1, "internal/server/")},
	// The daemon's catalog changes one way, Server.apply: clients' ops,
	// mirrored records and a restart's replay alike.
	{"apply", calls(named("streamshare/internal/core", "Apply", "Subscribe", "Unsubscribe"), []string{"internal/server/"}, 0, -1, "(*Server).apply")},
	// Peers are placed once, on the starting topology; bench/ is read as text.
	{"placement", func(m *module) []string {
		return append(calls(named("streamshare/internal/runtime", "PartitionPeers"), nil, 1, 1, "NewCluster")(m), grep(`PartitionPeers\(`, "bench/")(m)...)
	}},
	// Algorithm 1 runs serially under Engine.mu; brute force is a test double.
	{"plannersync", imports("internal/plan/planner.go", "sync", "sync/atomic")},
	{"plannernames", grep(`opt\.Reference|ReferencePlanner|PlanWorkers|runParallel`, "internal/plan/", "internal/core/", "cmd/")},
	// Items move through operator stages one way: exec.Pipeline.Eval.
	{"stageloop", calls(named("streamshare/internal/exec", "Process", "Flush"), nil, 0, -1, "internal/exec/")},
	{"itemloop", grep(`ProcessWith|runOpsFrom|flushFrom|runOps\(|flushOps\(`)},
	{"freshslice", grep(`return \[\]\*xmlstream\.Element\{`, "internal/exec/")},
	// The simulator walks batches; its per-item walk is a test oracle.
	{"batching", grep(`\[\]\*xmlstream\.Element\{[^}]|func \(s \*sim\) deliver\(`, "internal/core/")},
	// A plan is a value: no operator state moves across a plan change.
	{"stageloads", grep(`StageLoads|must not be modified while the runtime runs`)},
	{"transplant", grep(`Transplant\(|transplantInput|chainPipelines|journalLevel|oldReplayKey|Stateful\(`)},
	// A selection reads leaf values through the value table its group shares.
	{"selslot", grep(`selSlot|func \(s \*Select\) value\(`, "internal/exec/")},
	// A data window's membership and close rule live in the window set; the
	// merge tiles coarse windows with fine ones.
	{"windowclose", calls(named("streamshare/internal/exec", "floorDiv"), nil, 0, -1,
		"(*windowSet[W]).process", "(*WindowMerge).add", "(*WindowMerge).combine")},
	{"closecopies", grep(`closeBefore|sortInt64`, "internal/exec/")},
	// Operators build their output trees in the batch's slab.
	{"slabbuilt", slabbuilt("(*Projection).Apply", "(*Restructure).eval")},
	// Code no production path reaches goes, or says why it stays.
	{"callers", callers},
	{"docs", docs},
	{"refs", refs},
}

// slabbuilt reports, inside the functions named, each xmlstream.Element
// composite literal, make of a []*xmlstream.Element and use of xmlstream.E or
// xmlstream.T: what those build on the heap must come from a slab.
func slabbuilt(fns ...string) func(*module) []string {
	const xs = "streamshare/internal/xmlstream"
	element := func(t types.Type) bool {
		n, ok := types.Unalias(t).(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == xs && n.Obj().Name() == "Element"
	}
	return func(m *module) (out []string) {
		for ip, files := range m.files {
			info := m.info[ip]
			for _, f := range files {
				for _, d := range f.Decls {
					d, ok := d.(*ast.FuncDecl)
					if !ok || !slices.Contains(fns, strings.ReplaceAll(info.Defs[d.Name].(*types.Func).FullName(), ip+".", "")) {
						continue
					}
					ast.Inspect(d, func(node ast.Node) bool {
						what := ""
						switch x := node.(type) {
						case *ast.CompositeLit:
							if element(info.TypeOf(x)) {
								what = "an Element literal"
							}
						case *ast.CallExpr:
							id, _ := x.Fun.(*ast.Ident)
							if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
								if sl, ok := info.TypeOf(x.Args[0]).Underlying().(*types.Slice); ok {
									if p, ok := sl.Elem().(*types.Pointer); ok && element(p.Elem()) {
										what = "a make of []*Element"
									}
								}
							}
						case *ast.Ident:
							if named(xs, "E", "T")(info.Uses[x]) {
								what = "xmlstream." + x.Name
							}
						}
						if what != "" {
							out = append(out, fmt.Sprintf("%s: %s in %s", fset.Position(node.Pos()), what, d.Name.Name))
						}
						return true
					})
				}
			}
		}
		return out
	}
}

// callers reports each function and method of non-test internal/ code that no
// production root reaches and m.allowed does not name, and each stale entry:
// one production reaches, one that names nothing or gives no reason, and one
// kept for bench/ whose name bench/ no longer mentions. The roots are main and init,
// the exported functions and methods of the root package, package-level
// initialisers, and the methods that satisfy an interface of the module or of
// the standard library it imports, of the types non-test code converts to an
// interface (converted).
func callers(m *module) (out []string) {
	type decl struct {
		ip string
		d  *ast.FuncDecl
	}
	decls, reached := map[*types.Func]decl{}, map[*types.Func]bool{}
	var work []*types.Func
	reach := func(o types.Object) {
		if f, ok := o.(*types.Func); ok && !reached[f.Origin()] {
			reached[f.Origin()] = true
			work = append(work, f.Origin())
		}
	}
	uses := func(ip string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				reach(m.info[ip].Uses[id])
			}
			return true
		})
	}
	// Interfaces with methods, by the name of their first method.
	ifaces, seen := map[string][]*types.Interface{}, map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if i, ok := t.Underlying().(*types.Interface); ok && i.NumMethods() > 0 && !seen[i] {
			seen[i] = true
			ifaces[i.Method(0).Name()] = append(ifaces[i.Method(0).Name()], i)
		}
	}
	done := map[*types.Package]bool{}
	var imports func(*types.Package)
	imports = func(p *types.Package) {
		for _, q := range p.Imports() {
			if !done[q] {
				done[q] = true
				if m.files[q.Path()] == nil {
					for _, name := range q.Scope().Names() {
						if o, ok := q.Scope().Lookup(name).(*types.TypeName); ok && o.Exported() {
							addIface(o.Type())
						}
					}
				}
				imports(q)
			}
		}
	}
	for ip, files := range m.files {
		imports(m.checked[ip])
		for _, tv := range m.info[ip].Types {
			addIface(tv.Type)
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					uses(ip, d) // a package-level initialiser
					continue
				}
				fn := m.info[ip].Defs[fd.Name].(*types.Func)
				decls[fn] = decl{ip, fd}
				recv := ""
				if fd.Recv != nil {
					recv = strings.TrimLeft(types.ExprString(fd.Recv.List[0].Type), "*")
				}
				if fd.Name.Name == "init" || fd.Name.Name == "main" && f.Name.Name == "main" ||
					ip == "streamshare" && fd.Name.IsExported() && (recv == "" || ast.IsExported(recv)) {
					reach(fn)
				}
			}
		}
	}
	for _, t := range converted(m) {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			for _, iface := range ifaces[ms.At(i).Obj().Name()] {
				if !types.Implements(t, iface) {
					continue
				}
				for j := 0; j < iface.NumMethods(); j++ {
					o, _, _ := types.LookupFieldOrMethod(t, false, iface.Method(j).Pkg(), iface.Method(j).Name())
					reach(o)
				}
			}
		}
	}
	drain := func() {
		for len(work) > 0 {
			f := work[len(work)-1]
			work = work[:len(work)-1]
			if d, ok := decls[f]; ok {
				uses(d.ip, d.d)
			}
		}
	}
	// An entry names a function, "(*xmlstream.Schema).Names", or a package, "testutil".
	entry := func(f *types.Func) (string, string, bool) {
		name := strings.ReplaceAll(f.FullName(), "streamshare/internal/", "")
		if why, ok := m.allowed[name]; ok {
			return name, why, ok
		}
		pkg := strings.TrimPrefix(f.Pkg().Path(), "streamshare/internal/")
		why, ok := m.allowed[pkg]
		return pkg, why, ok
	}
	drain()
	prod := maps.Clone(reached)
	for f := range decls {
		if _, _, ok := entry(f); ok {
			reach(f) // what an entry calls stays with it
		}
	}
	drain()
	declared := map[string]bool{}
	for f, d := range decls {
		name, why, ok := entry(f)
		declared[name] = true
		at := fset.Position(d.d.Name.Pos())
		switch {
		case !strings.HasPrefix(d.ip, "streamshare/internal/"):
		case prod[f] && ok:
			out = append(out, fmt.Sprintf("%s: %s is allowed (%s) but production reaches %s", at, name, why, f.Name()))
		case !reached[f]:
			out = append(out, fmt.Sprintf("%s: %s: no production caller", at, f.Name()))
		case ok && strings.HasPrefix(why, "bench/") && grep(`\b`+f.Name()+`\b`, m.nested...)(m) == nil:
			out = append(out, fmt.Sprintf("%s: %s is allowed (%s) but bench/ no longer names it", at, name, why))
		}
	}
	for name, why := range m.allowed {
		if !declared[name] || why == "" {
			out = append(out, fmt.Sprintf("%s is allowed (%q) but not declared, or without a reason", name, why))
		}
	}
	return out
}

// converted lists the module's named types, and pointers to them, that
// non-test code converts to an interface type: as a call argument, in an
// assignment or a typed var, as a return value, as a composite-literal
// element, or as a type argument. Only through such a value can an interface
// call reach their methods.
func converted(m *module) (out []types.Type) {
	seen := map[string]bool{}
	add := func(t types.Type) {
		t = types.Unalias(t)
		n, _ := t.(*types.Named)
		if p, ok := t.(*types.Pointer); ok {
			n, _ = types.Unalias(p.Elem()).(*types.Named)
		}
		if n != nil && !types.IsInterface(n) && n.Obj().Pkg() != nil && m.files[n.Obj().Pkg().Path()] != nil &&
			(n.TypeParams().Len() == 0 || n.TypeArgs().Len() > 0) && !seen[types.TypeString(t, nil)] { // not a bare generic name
			seen[types.TypeString(t, nil)] = true
			out = append(out, t)
		}
	}
	for ip, files := range m.files {
		info := m.info[ip]
		for _, inst := range info.Instances {
			for i := 0; i < inst.TypeArgs.Len(); i++ {
				add(inst.TypeArgs.At(i))
			}
		}
		// to(i) receives the i-th value of exprs, one expression each or one
		// call's results.
		assign := func(to func(i int) types.Type, exprs []ast.Expr) {
			into := func(to, from types.Type) {
				if to != nil && from != nil && types.IsInterface(to) {
					add(from)
				}
			}
			if len(exprs) == 1 {
				if tup, ok := info.TypeOf(exprs[0]).(*types.Tuple); ok {
					for i := 0; i < tup.Len(); i++ {
						into(to(i), tup.At(i).Type())
					}
					return
				}
			}
			for i, e := range exprs {
				into(to(i), info.TypeOf(e))
			}
		}
		// walk inspects n, the body of a function with results.
		var walk func(n ast.Node, results *types.Tuple)
		walk = func(n ast.Node, results *types.Tuple) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					if x.Body != nil {
						walk(x.Body, info.Defs[x.Name].Type().(*types.Signature).Results())
					}
					return false
				case *ast.FuncLit:
					walk(x.Body, info.TypeOf(x).(*types.Signature).Results())
					return false
				case *ast.ReturnStmt:
					assign(func(i int) types.Type { return results.At(i).Type() }, x.Results)
				case *ast.AssignStmt:
					if x.Tok == token.ASSIGN {
						assign(func(i int) types.Type { return info.TypeOf(x.Lhs[i]) }, x.Rhs)
					}
				case *ast.ValueSpec:
					if x.Type != nil {
						assign(func(int) types.Type { return info.TypeOf(x.Type) }, x.Values)
					}
				case *ast.CallExpr:
					if tv := info.Types[x.Fun]; tv.IsType() {
						assign(func(int) types.Type { return tv.Type }, x.Args)
					} else if sig, ok := tv.Type.(*types.Signature); ok {
						ps := sig.Params()
						assign(func(i int) types.Type {
							if !sig.Variadic() || i < ps.Len()-1 {
								return ps.At(i).Type()
							} else if x.Ellipsis.IsValid() {
								return ps.At(ps.Len() - 1).Type()
							}
							return ps.At(ps.Len() - 1).Type().(*types.Slice).Elem()
						}, x.Args)
					}
				case *ast.CompositeLit:
					lit := info.TypeOf(x)
					if p, ok := lit.Underlying().(*types.Pointer); ok { // an elided &T
						lit = p.Elem()
					}
					for i, elt := range x.Elts {
						var key ast.Expr
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							key, elt = kv.Key, kv.Value
						}
						var to types.Type
						switch t := lit.Underlying().(type) {
						case *types.Struct:
							if key == nil {
								to = t.Field(i).Type()
							} else if id, ok := key.(*ast.Ident); ok && info.Uses[id] != nil {
								to = info.Uses[id].Type()
							}
						case *types.Slice:
							to = t.Elem()
						case *types.Array:
							to = t.Elem()
						case *types.Map:
							assign(func(int) types.Type { return t.Key() }, []ast.Expr{key})
							to = t.Elem()
						}
						assign(func(int) types.Type { return to }, []ast.Expr{elt})
					}
				}
				return true
			})
		}
		for _, f := range files {
			walk(f, nil)
		}
	}
	return out
}

// docs reports the undocumented exports of the hot-path packages, whose
// ownership and concurrency rules live in their doc comments.
func docs(m *module) (out []string) {
	for _, name := range []string{"runtime", "exec", "xmlstream", "transport", "wire"} {
		files := m.files["streamshare/internal/"+name]
		if !slices.ContainsFunc(files, func(f *ast.File) bool { return f.Doc != nil }) {
			out = append(out, "internal/"+name+": no package comment")
		}
		for _, f := range files {
			for _, id := range undocumented(f) {
				out = append(out, fmt.Sprintf("%s: undocumented %s", fset.Position(id.Pos()), id.Name))
			}
		}
	}
	return out
}

// undocumented lists the exported identifiers of f without a doc or line
// comment: functions, types, values, and the methods and fields of exported
// types. A group's doc covers its specs.
func undocumented(f *ast.File) (out []*ast.Ident) {
	bare := func(names []*ast.Ident, docs ...*ast.CommentGroup) {
		if !slices.ContainsFunc(docs, func(c *ast.CommentGroup) bool { return c != nil }) {
			out = append(out, slices.DeleteFunc(slices.Clone(names), func(n *ast.Ident) bool { return !n.IsExported() })...)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || ast.IsExported(strings.TrimLeft(types.ExprString(d.Recv.List[0].Type), "*")) {
				bare([]*ast.Ident{d.Name}, d.Doc)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					bare(s.Names, d.Doc, s.Doc, s.Comment)
				case *ast.TypeSpec:
					bare([]*ast.Ident{s.Name}, d.Doc, s.Doc, s.Comment)
					var fields []*ast.Field
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					}
					for _, field := range fields {
						if s.Name.IsExported() {
							bare(field.Names, field.Doc, field.Comment)
						}
					}
				}
			}
		}
	}
	return out
}

var (
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	codeSpan = regexp.MustCompile("`((?:internal|cmd|bench|docs)/[^`]*)`")
	// A tail marks a family: `BenchmarkAblation*`, `TestFoo{A,B}`, `TestBar…`.
	testName = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9]\w*)([{*…]?)`)
	// Of `internal/cost.DefaultModel` only the package is looked up.
	qualified = regexp.MustCompile(`\.[A-Z]\w*$`)
	// A name in a metric namespace; not a Go name (`runtime.NewCluster`) or a
	// profile frame (`runtime.mallocgc()`).
	metricName = regexp.MustCompile("`((?:adapt|bench|core|durable|exec|latency|plan|runtime|server|sim|transport|wire|xmlstream)\\.[a-z0-9_.]+)`")
)

// refs reports every backticked repository path, test name and metric name
// the documents mention that does not exist.
func refs(m *module) (out []string) {
	for _, doc := range []string{"DESIGN.md", "PERFORMANCE.md", "README.md", "EXPERIMENTS.md", "docs/WIRE.md"} {
		text, err := os.ReadFile(filepath.Join(m.root, doc))
		if err != nil {
			out = append(out, err.Error())
		}
		for i, line := range strings.Split(string(text), "\n") {
			at := fmt.Sprintf("%s:%d: ", doc, i+1)
			for _, s := range codeSpan.FindAllStringSubmatch(line, -1) {
				if ref, _, _ := strings.Cut(s[1], " "); !m.pathExists(ref) {
					out = append(out, at+"no such path "+ref)
				}
			}
			for _, s := range testName.FindAllStringSubmatch(line, -1) {
				if !slices.ContainsFunc(m.tests, func(t string) bool { return t == s[1] || s[2] != "" && strings.HasPrefix(t, s[1]) }) {
					out = append(out, at+"no such test "+s[1])
				}
			}
			for _, s := range metricName.FindAllStringSubmatch(line, -1) {
				if !m.metric(s[1]) {
					out = append(out, at+"no such metric "+s[1])
				}
			}
		}
	}
	return out
}

// pathExists resolves a path reference: :line is dropped, `{`, `*`, `…` or
// `<` cuts it to a prefix, and generated paths under bench/out/ are exempt.
func (m *module) pathExists(ref string) bool {
	if strings.HasPrefix(ref, "bench/out/") {
		return true
	}
	if i := strings.IndexAny(ref, "{*…<"); i >= 0 {
		matches, _ := filepath.Glob(m.root + string(filepath.Separator) + filepath.FromSlash(ref[:i]) + "*")
		return len(matches) > 0
	}
	ref, _, _ = strings.Cut(ref, ":")
	_, err := os.Stat(filepath.Join(m.root, qualified.ReplaceAllString(ref, "")))
	return err == nil
}

// metric reports whether name is a string literal of the Go source or ends in
// one that starts with "." or "_" (`sim.traffic.bytes`: prefix+".traffic.bytes").
func (m *module) metric(name string) bool {
	for i, c := range name {
		if m.lits[name[i:]] && (i == 0 || c == '.' || c == '_') {
			return true
		}
	}
	return false
}

// check runs every rule over the module at root: the findings by rule.
func check(t *testing.T, root string, allowed map[string]string) map[string][]string {
	if testutil.Race {
		t.Skip("type-checks from source; slow under the race detector")
	}
	m, found := load(t, root), map[string][]string{}
	m.allowed = allowed
	for _, r := range rules {
		found[r.name] = r.check(m)
		slices.Sort(found[r.name])
	}
	return found
}

func TestInvariants(t *testing.T) {
	found := check(t, ".", unreached)
	for _, r := range rules {
		for _, f := range found[r.name] {
			t.Errorf("%s: %s", r.name, f)
		}
	}
}

// fixture is a module that keeps every rule: the guarded calls where the
// rules allow them, documented exports, and documents whose references
// resolve. README.md is the document the refs rule must accept whole.
var fixture = map[string]string{
	"bench/go.mod":    "module streamshare/bench\n",
	"bench/ledger.go": "package main\n\nvar kernel = \"exec.\" + \"sel\" + \"_ns_per_item\"\n",
	"cmd/sgd/main.go": `package main
import ("streamshare/internal/exec"; "streamshare/internal/runtime"; "streamshare/internal/server"; "streamshare/internal/transport")
func main() { exec.Eval(nil); server.Serve(runtime.NewCluster()); new(transport.Mesh).Run() }`,
	"internal/plan/plan.go":      "package plan\n\nfunc Reference() {}\n\nfunc Names() {}\n",
	"bench/inputs.go":            "package main\n\n// plan.Names()\n",
	"internal/plan/planner.go":   "package plan\n\nimport _ \"sort\"\n",
	"internal/plan/plan_test.go": "package plan\n\nfunc TestIndexA(t *testing.T) {}\nfunc BenchmarkPlanCold(b *testing.B) {}\n",
	"internal/xmlstream/fast.go": `// Package xmlstream holds element trees.
package xmlstream
// AppendMarshal appends canonical XML.
func AppendMarshal(dst []byte) []byte { return dst }
// UnmarshalBytes parses canonical XML.
func UnmarshalBytes(b []byte) error { return nil }`,
	"internal/wire/binary.go":     "// Package wire codes batches.\npackage wire\n\nimport \"streamshare/internal/xmlstream\"\n\nvar raw = xmlstream.AppendMarshal(nil)\n",
	"internal/transport/frame.go": "// Package transport moves frames.\npackage transport\n\nimport \"streamshare/internal/xmlstream\"\n\nvar parse = xmlstream.UnmarshalBytes\n",
	"internal/transport/link.go": `package transport
import "time"
type conn interface{ WriteFrame(p []byte) error }
type Link struct{ c conn } // Link owns one conn.
type Mesh struct{ l *Link } // Mesh holds the links.
func (l *Link) writer() { l.c.WriteFrame(nil) }
func (l *Link) handshakeDial() { l.c.WriteFrame(nil) }
func (m *Mesh) handleIncoming() { m.l.c.WriteFrame(nil) }
func (m *Mesh) ackerLoop() { time.NewTicker(time.Millisecond).Stop() }
// Run starts the mesh's loops.
func (m *Mesh) Run() { m.l.writer(); m.l.handshakeDial(); m.handleIncoming(); m.ackerLoop() }`,
	"internal/runtime/cluster.go": `// Package runtime runs plans.
package runtime
type Cluster struct{} // Cluster is a set of processes.
// PartitionPeers places peers on processes.
func PartitionPeers() {}
// NewCluster places the peers once.
func NewCluster() *Cluster { PartitionPeers(); return &Cluster{} }
// BroadcastControl sends a control record to the other nodes.
func (c *Cluster) BroadcastControl() {}
var metrics = []string{"runtime.batch.size", ".traffic.bytes"}`,
	"internal/server/server.go": "package server\n\nimport \"streamshare/internal/runtime\"\n\nfunc Serve(c *runtime.Cluster) { c.BroadcastControl() }\n",
	"internal/exec/exec.go": `// Package exec evaluates operators.
package exec
// Operator consumes batches.
type Operator interface {
	Process(dst []int) []int // Process consumes a batch.
	Flush(dst []int) []int // Flush appends held state.
}
// Eval is the one stage loop.
func Eval(op Operator) []int { return op.Flush(op.Process(nil)) }`,
	"DESIGN.md":      "`runtime.batch.size` `sim.traffic.bytes` `exec.sel_ns_per_item` `runtime.mallocgc()` `runtime.NewCluster`\n",
	"PERFORMANCE.md": "", "EXPERIMENTS.md": "", "docs/WIRE.md": "",
	"README.md": "`internal/plan/plan.go` `internal/plan` `internal/plan.New` `cmd/sgd -node n0`\n" +
		"`internal/{plan,core}` `internal/plan/plan.go:12` `bench/out/run.json` TestIndexA `BenchmarkPlan{Cold,Warm}` TestIndex* Testing\n",
}

// fixtureUnreached is the fixture's callers allowlist.
var fixtureUnreached = map[string]string{"plan.Reference": "the tests' brute-force planner", "plan.Names": "bench/ (ROADMAP item 16)"}

// planted breaks one rule each, where it can in a way a grep over call
// syntax misses: a method value, an alias, a method expression. Production
// reaches what it plants, unless the rule is callers.
var planted = []struct {
	rule  string
	files map[string]string
	want  int
}{
	{"clean", nil, 0},
	{"writer", map[string]string{"internal/transport/read.go": "package transport\n\nfunc init() { var l Link; w := l.c.WriteFrame; w(nil) }\n"}, 1},
	{"ackwriter", map[string]string{"internal/transport/ack.go": "package transport\n\n// flushAck\n"}, 1},
	{"sleep", map[string]string{"internal/server/wait.go": "package server\n\nimport \"time\"\n\nfunc init() { time.Sleep(time.Millisecond) }\n"}, 1},
	{"ticker", map[string]string{"internal/runtime/tick.go": "package runtime\n\nimport \"time\"\n\nvar tick = time.Tick\n"}, 1},
	{"health", map[string]string{"internal/health/health.go": "package health\n", "cmd/sgd/health.go": "package main\n\nimport _ \"streamshare/internal/health\"\n"}, 1},
	{"deadline", map[string]string{"internal/transport/idle.go": "package transport\n\nvar idle = func(c interface{ SetWriteDeadline() }) { c.SetWriteDeadline() }\n"}, 1},
	{"liveness", map[string]string{"internal/core/gossip.go": "package core\n\n// gossip\n"}, 1},
	{"negotiated", map[string]string{"cmd/sgd/seed.go": "package main\n\n// WireObserver\n"}, 1},
	{"canonical", map[string]string{"internal/runtime/raw.go": "package runtime\n\nimport x \"streamshare/internal/xmlstream\"\n\nvar raw = x.AppendMarshal\n"}, 1},
	{"mirror", map[string]string{"internal/server/mirror.go": "package server\n\nimport \"streamshare/internal/runtime\"\n\nvar mirror = (*runtime.Cluster).BroadcastControl\n"}, 1},
	{"apply", map[string]string{"internal/core/engine.go": "package core\n\ntype Engine struct{}\n\nfunc (e *Engine) Subscribe() {}\n",
		"internal/server/sub.go": "package server\n\nimport \"streamshare/internal/core\"\n\nvar sub = (*core.Engine).Subscribe\n"}, 1},
	{"placement", map[string]string{"internal/server/place.go": "package server\n\nimport rt \"streamshare/internal/runtime\"\n\nvar place = rt.PartitionPeers\n"}, 1},
	{"placement", map[string]string{"bench/place.go": "package main\n\n// runtime.PartitionPeers(net, nodes)\n"}, 1},
	{"plannersync", map[string]string{"internal/plan/planner.go": "package plan\n\nimport _ \"sync/atomic\"\n"}, 1},
	{"plannernames", map[string]string{"cmd/sgd/workers.go": "package main\n\n// PlanWorkers\n"}, 1},
	{"stageloop", map[string]string{"internal/core/run.go": "package core\n\nimport \"streamshare/internal/exec\"\n\nvar run = func(op exec.Operator) { op.Process(nil) }\n"}, 1},
	{"itemloop", map[string]string{"internal/runtime/ops.go": "package runtime\n\n// runOpsFrom\n"}, 1},
	{"freshslice", map[string]string{"internal/exec/fresh.go": "package exec\n\n// return []*xmlstream.Element{\n"}, 1},
	{"batching", map[string]string{"internal/core/sim.go": "package core\n\n// func (s *sim) deliver(\n"}, 1},
	{"stageloads", map[string]string{"internal/core/loads.go": "package core\n\n// StageLoads\n"}, 1},
	{"transplant", map[string]string{"internal/exec/state.go": "package exec\n\n// Transplant(\n"}, 1},
	{"selslot", map[string]string{"internal/exec/slot.go": "package exec\n\n// selSlot\n"}, 1},
	{"windowclose", map[string]string{"internal/exec/window.go": "package exec\n\nfunc floorDiv(a, b int64) int64 { return a / b }\n\nvar k = floorDiv(7, 2)\n"}, 1},
	{"closecopies", map[string]string{"internal/exec/close.go": "package exec\n\n// closeBefore\n"}, 1},
	{"slabbuilt", map[string]string{"internal/xmlstream/element.go": slabbuiltElement +
		"// Apply builds on the heap.\nfunc (pr *Projection) Apply(e *Element) *Element { return &Element{Name: e.Name} }\n\nvar _ = (*Projection).Apply\n"}, 1},
	{"slabbuilt", map[string]string{"internal/xmlstream/element.go": slabbuiltElement, "internal/exec/restructure.go": `package exec
import x "streamshare/internal/xmlstream"
type Restructure struct{} // Restructure builds outputs.
func (r *Restructure) eval() []*x.Element { return append(make([]*x.Element, 0, 1), x.T("value")) }
var _ = (*Restructure).eval`}, 2},
	{"docs", map[string]string{"internal/wire/api.go": "package wire\n\ntype Encoder struct{}\n"}, 1},
	{"callers", map[string]string{"internal/plan/dead.go": "package plan\n\nfunc Dead() {}\n", "internal/plan/dead_test.go": "package plan\n\nfunc TestDead(t *testing.T) { Dead() }\n"}, 1},
	{"callers", map[string]string{"cmd/sgd/ref.go": "package main\n\nimport \"streamshare/internal/plan\"\n\nvar ref = plan.Reference\n"}, 1},
	{"callers", map[string]string{"bench/inputs.go": "package main\n"}, 1},
	{"callers", map[string]string{"internal/plan/stringers.go": callersStringers}, 1},
	{"refs", map[string]string{"EXPERIMENTS.md": "`internal/plan/gone.go`\n`cmd/gone -x` and TestGone\n`BenchmarkGone*` `internal/gone.New`\n"}, 5},
	{"refs", map[string]string{"docs/WIRE.md": "`runtime.batch.size` `runtime.gone` `sim.gone.bytes`\n"}, 2},
}

// callersStringers converts five fmt.Stringers to an interface, one each way
// the callers rule counts, so their String methods are roots; the sixth is
// never converted, so its String is dead.
const callersStringers = `package plan
import "fmt"
type arg struct{}
type assigned struct{}
type declared struct{}
type returned struct{}
type element struct{}
type kept struct{}
func (arg) String() string { return "" }
func (assigned) String() string { return "" }
func (declared) String() string { return "" }
func (returned) String() string { return "" }
func (element) String() string { return "" }
func (kept) String() string { return "" }
func stringer() fmt.Stringer { return returned{} }
var s fmt.Stringer
var _ = fmt.Sprint(arg{})
var _ = func() { s = assigned{} }
var _ fmt.Stringer = declared{}
var _ = []fmt.Stringer{element{}, stringer()}
var _ = kept{}
`

// slabbuiltElement is the element API the slabbuilt plantings build with.
const slabbuiltElement = `package xmlstream
// Element is one node.
type Element struct {
	Name string // Name is its tag.
}
// T builds a leaf on the heap.
func T(name string) *Element { return &Element{Name: name} }
// Projection prunes items.
type Projection struct{}
var _ = T
`

// TestInvariantsPlanted: each planted violation is reported by its rule alone.
func TestInvariantsPlanted(t *testing.T) {
	for _, c := range planted {
		t.Run(c.rule, func(t *testing.T) {
			root := t.TempDir()
			for _, files := range []map[string]string{fixture, c.files} {
				for path, body := range files {
					path = filepath.Join(root, path)
					if err := errors.Join(os.MkdirAll(filepath.Dir(path), 0o755), os.WriteFile(path, []byte(body), 0o644)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for rule, found := range check(t, root, fixtureUnreached) {
				if n := len(found); rule == c.rule && n != c.want || rule != c.rule && n != 0 {
					t.Errorf("%s: %d findings: %q", rule, n, found)
				}
			}
		})
	}
}

// unreached names the functions the callers rule lets stand with no production
// caller, and why; what an entry calls stays with it. It may only shrink: an
// entry production reaches, one that names nothing, or a bench/ entry bench/
// no longer names fails the rule.
var unreached = map[string]string{
	"(*exec.Pipeline).Run":                 "bench/ (ROADMAP item 16)",
	"(*exec.Pipeline).Process":             "bench/ (ROADMAP item 16)",
	"(*exec.Pipeline).Flush":               "bench/ (ROADMAP item 16)",
	"(*wire.BinaryEncoder).SeedShared":     "bench/ (ROADMAP item 16)",
	"(*wire.BinaryDecoder).SeedShared":     "bench/ (ROADMAP item 16)",
	"properties.Build":                     "bench/ (ROADMAP item 16)",
	"(*properties.Properties).SingleInput": "bench/ (ROADMAP item 16)",
	"(obs.Snapshot).Delta":                 "bench/ (ROADMAP item 16)",
	"(*runtime.Runtime).MailboxHWM":        "bench/ (ROADMAP item 16)",
	"xmlstream.InferSchema":                "bench/ (ROADMAP item 16)",
	"(*xmlstream.Schema).Names":            "bench/ (ROADMAP item 16)",
	"(*runtime.Runtime).KillPeer":          "fault injection: the recovery tests kill a peer mid-run",
	"(*runtime.Cluster).DumpState":         "hang diagnosis: the tests' watchdog prints a cluster's links",
	"(*transport.Mesh).DumpState":          "hang diagnosis: the tests' watchdog prints a mesh's links",
	"transport.NewMem":                     "the in-memory mesh the cluster tests run without sockets",
	"(*transport.Mem).Listen":              "the in-memory mesh the cluster tests run without sockets",
	"(*transport.Mem).Dial":                "the in-memory mesh the cluster tests run without sockets",
	"(*server.Server).Close":               "the tests shut a daemon down; sgd runs until it is killed",
	"plan.Reference":                       "the brute-force planner the planner equivalence tests compare against",
	"(*obs.LatencyRecorder).SampledKeys":   "what the span-sampling tests compare between simulator and runtime",
	"(*xmlstream.Element).Equal":           "the item comparison of the equivalence tests",
	"(*xmlstream.Element).Clone":           "the reference evaluator's deep copy",
	"scenario.ScaleGrid":                   "the topologies of the scaling and equivalence tests",
	"scenario.Scenario1":                   "the paper's scenario 1, which the scenario and recovery tests run",
	"(*network.Metrics).Merge":             "sums per-node metrics in the cluster equivalence tests",
	"decimal.MustParse":                    "literals in tests",
	"wxquery.MustParse":                    "literals in tests",
	"testutil":                             "helpers for tests: the race flag and the hang watchdog",
}

package lobster

// TestReach enforces the standing reachability rule (DESIGN.md, standing
// rules): a name or option exists only if a program reaches it. It
// type-checks the non-test packages of both modules, this one and
// benchmark/ (which imports it), and fails on
//
//   - an exported function, method, type, variable or constant in
//     internal/ that no non-test code uses outside its own declaration;
//   - an unexported function or method with no such use;
//   - an exported field of an exported struct in internal/ (an option)
//     that no non-test code sets, unless encoding/json fills the struct;
//
// unless reachAllow names it with the reason a test needs it. A method
// that satisfies an interface may be called through it and is not
// checked. benchmark/ is a caller, never a subject: it changes only with
// the benchmark. Run it alone with `make reach`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the test seams: names only tests reach, each with the
// reason a test cannot do without it. Keys are "pkg.Name",
// "pkg.Type.Method" or "pkg.Type.Field", pkg relative to the module.
var reachAllow = map[string]string{
	"internal/telemetry.Registry.SetClock":      "windowed-rule tests step a simulated clock",
	"internal/faultinject.Injector.SetSleep":    "chaos tests make injected stalls free",
	"internal/faultinject.Injector.Fired":       "chaos tests prove a storm hit the point they aim at",
	"internal/faultinject.Injector.Invocations": "chaos tests prove traffic reached a point",
	"internal/wire.HTTPClient.Parked":           "client tests count the idle connections kept for reuse",
	"internal/hdfs.Cluster.Nodes":               "failure tests pick the data nodes to take down",
	"internal/hdfs.DataNode.SetDown":            "failure tests take a data node down",
	"internal/xrootd.DataServer.SetDown":        "failover tests take a data server down",
	"internal/simevent.Sim.Procs":               "leak checks count live processes after a run",
	"internal/simevent.Sim.Pending":             "leak checks, and the kernel benchmarks' batch size",
	"internal/bufpool.Warm":                     "transfer benchmarks fill the pool before the timer so B/op is stable",
	"internal/health.Config.Rules":              "hub tests run a rule set of their own",
	"internal/cluster.Summarize":                "figure tests assert the availability trace's shape",
	"internal/cluster.HazardIsDecreasing":       "figure tests assert the eviction hazard falls with age",
	"internal/sim.PeakEfficiency":               "figure tests assert the efficiency peak",
	"internal/sim.Fig10Data.OutageWindowStats":  "figure tests assert the outage window's shape",
	"internal/wq.FilesCreated":                  "the warm-slot benchmarks report it as files/op, pinned at 0 in BENCH_dataplane.json",
	"internal/wq.MasterStats.BytesSent":         "always 0, read by benchmark/layers.go until the benchmark drops it",
}

type reachPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// reachList runs `go list -deps -export` in dir: every package the
// module's packages build from, dependencies first. (go test puts its
// own go first on the PATH.)
func reachList(t *testing.T, dir string) []reachPkg {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Module", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []reachPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p reachPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
}

type reachUnit struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// reachScan holds one scan: the objects checked, and which of them
// non-test code uses or sets.
type reachScan struct {
	subject map[types.Object]string // -> its reachAllow key
	owner   map[*types.Var]*types.Named
	used    map[types.Object]bool
	set     map[*types.Var]bool
	decoded map[*types.Named]bool
	ifaces  []*types.Interface
}

func TestReach(t *testing.T) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: reachImporter(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	var units []reachUnit
	for _, dir := range []string{".", "benchmark"} {
		for _, p := range reachList(t, dir) {
			own := p.Module != nil && (p.Module.Path == "lobster" || p.Module.Path == "lobster/benchmark")
			if !own {
				exports[p.ImportPath] = p.Export
				continue
			}
			if checked[p.ImportPath] != nil {
				continue
			}
			u := reachUnit{info: &types.Info{
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{},
			}}
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				u.files = append(u.files, f)
			}
			var err error
			if u.pkg, err = conf.Check(p.ImportPath, fset, u.files, u.info); err != nil {
				t.Fatalf("type-check %s: %v", p.ImportPath, err)
			}
			checked[p.ImportPath] = u.pkg
			units = append(units, u)
		}
	}

	s := &reachScan{
		subject: map[types.Object]string{},
		owner:   map[*types.Var]*types.Named{},
		used:    map[types.Object]bool{},
		set:     map[*types.Var]bool{},
		decoded: map[*types.Named]bool{},
		ifaces:  reachErrorIfaces(),
	}
	for _, u := range units {
		s.collectIfaces(u)
	}
	for _, u := range units {
		rel, ok := strings.CutPrefix(u.pkg.Path(), "lobster/")
		if ok && strings.HasPrefix(rel, "benchmark") {
			continue
		}
		for _, f := range u.files {
			s.declare(rel, f, u.info)
		}
	}
	for _, u := range units {
		for _, f := range u.files {
			for _, d := range f.Decls {
				s.walk(d, u.info)
			}
		}
	}

	var bad []string
	flagged := map[string]bool{}
	for obj, key := range s.subject {
		what := "no program reaches it"
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if s.set[v] || s.decoded[s.owner[v]] {
				continue
			}
			what = "an option no program sets"
		} else if s.used[obj] {
			continue
		}
		flagged[key] = true
		if reachAllow[key] == "" {
			bad = append(bad, fmt.Sprintf("%s: %s: %s", fset.Position(obj.Pos()), key, what))
		}
	}
	for key := range reachAllow {
		if !flagged[key] {
			bad = append(bad, fmt.Sprintf("reachAllow: a program reaches %s, or it is gone: drop its entry", key))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

type reachImporter func(string) (*types.Package, error)

func (f reachImporter) Import(path string) (*types.Package, error) { return f(path) }

// reachErrorIfaces are the interfaces errors.Is, errors.As and
// errors.Unwrap call through without naming them.
func reachErrorIfaces() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	tuple := func(ts ...types.Type) *types.Tuple {
		var vs []*types.Var
		for _, t := range ts {
			vs = append(vs, types.NewVar(token.NoPos, nil, "", t))
		}
		return types.NewTuple(vs...)
	}
	iface := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	boolT := types.Typ[types.Bool]
	return []*types.Interface{
		iface("Is", tuple(errT), tuple(boolT)),
		iface("As", tuple(types.NewInterfaceType(nil, nil).Complete()), tuple(boolT)),
		iface("Unwrap", tuple(), tuple(errT)),
		iface("Unwrap", tuple(), tuple(types.NewSlice(errT))),
	}
}

// collectIfaces gathers every interface a method could be called
// through: those the unit's code spells, and every named one in every
// package it imports, directly or not.
func (s *reachScan) collectIfaces(u reachUnit) {
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			s.ifaces = append(s.ifaces, it)
		}
	}
	for _, tv := range u.info.Types {
		add(tv.Type)
	}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	visit(u.pkg)
}

// satisfies reports whether method m implements a method of some
// interface, so a call may reach it without naming it.
func (s *reachScan) satisfies(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range s.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
					return true
				}
				break
			}
		}
	}
	return false
}

// declare records the subjects one file of package rel declares.
func (s *reachScan) declare(rel string, f *ast.File, info *types.Info) {
	internal := strings.HasPrefix(rel, "internal/")
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj := info.Defs[d.Name].(*types.Func)
			name := d.Name.Name
			if name == "_" || (d.Recv == nil && (name == "main" || name == "init")) || (obj.Exported() && !internal) {
				continue
			}
			key := rel + "." + name
			if d.Recv != nil {
				if s.satisfies(obj) {
					continue
				}
				key = rel + "." + reachRecvName(d.Recv.List[0].Type) + "." + name
			}
			s.subject[obj] = key
		case *ast.GenDecl:
			if !internal {
				continue
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					obj := info.Defs[sp.Name]
					if !obj.Exported() {
						continue
					}
					s.subject[obj] = rel + "." + sp.Name.Name
					named, _ := obj.Type().(*types.Named)
					st, ok := obj.Type().Underlying().(*types.Struct)
					if named == nil || !ok {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						if fv := st.Field(i); fv.Exported() && !fv.Embedded() {
							s.subject[fv] = rel + "." + sp.Name.Name + "." + fv.Name()
							s.owner[fv] = named
						}
					}
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						if obj := info.Defs[id]; obj != nil && obj.Exported() {
							s.subject[obj] = rel + "." + id.Name
						}
					}
				}
			}
		}
	}
}

func reachRecvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

func reachOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// walk records the uses and field sets in one top-level declaration. A
// use inside the declaration of the object used does not count, nor does
// a method's receiver naming its own type.
func (s *reachScan) walk(d ast.Decl, info *types.Info) {
	self := map[types.Object]bool{}
	var recv ast.Node
	switch d := d.(type) {
	case *ast.FuncDecl:
		self[info.Defs[d.Name]] = true
		if d.Recv != nil {
			recv = d.Recv
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				self[info.Defs[sp.Name]] = true
			case *ast.ValueSpec:
				for _, id := range sp.Names {
					self[info.Defs[id]] = true
				}
			}
		}
	}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := reachOrigin(info.Uses[id]).(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// markSet records the fields an assignment to e sets: a.B.C[i] = v
	// sets C and the contents of B.
	markSet := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				v := field(x.Sel)
				if v == nil {
					return
				}
				s.set[v] = true
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		if n != nil && n == recv {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil && !self[reachOrigin(o)] {
				s.used[reachOrigin(o)] = true
			}
		case *ast.CompositeLit:
			st, ok := info.Types[x].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range x.Elts {
				kv, keyed := el.(*ast.KeyValueExpr)
				if !keyed {
					s.set[reachOrigin(st.Field(i)).(*types.Var)] = true
				} else if v := field(kv.Key.(*ast.Ident)); v != nil {
					s.set[v] = true
				}
			}
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				markSet(l)
			}
		case *ast.IncDecStmt:
			markSet(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				markSet(x.X)
			}
		case *ast.CallExpr:
			s.noteDecode(x, info)
		}
		return true
	})
}

// noteDecode marks the struct types a json.Unmarshal or Decoder.Decode
// call fills: encoding/json sets their fields, not a composite literal.
func (s *reachScan) noteDecode(call *ast.CallExpr, info *types.Info) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" || (fn.Name() != "Unmarshal" && fn.Name() != "Decode") {
		return
	}
	var mark func(t types.Type)
	mark = func(t types.Type) {
		switch x := t.(type) {
		case *types.Pointer:
			mark(x.Elem())
		case *types.Slice:
			mark(x.Elem())
		case *types.Array:
			mark(x.Elem())
		case *types.Map:
			mark(x.Elem())
		case *types.Named:
			if !s.decoded[x] {
				s.decoded[x] = true
				mark(x.Underlying())
			}
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				mark(x.Field(i).Type())
			}
		}
	}
	mark(info.Types[call.Args[len(call.Args)-1]].Type)
}

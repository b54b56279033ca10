package atm

import (
	"bytes"
	"encoding/json"
	"errors"
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

// reachAllowlist names exported functions and methods that have no
// non-test caller on purpose, each with the reason it stays. The list
// may only shrink: TestReachability fails on an entry that is used or
// gone, so a stale reason cannot linger.
var reachAllowlist = map[string]string{
	"atm/internal/resize.Problem.Exact":          "optimality oracle the greedy is checked against; ROADMAP item 7 measures the greedy's gap with it",
	"atm/internal/resize.Problem.DynamicProgram": "second optimality oracle, cross-checks Exact and the greedy (ROADMAP item 7)",
	"atm/internal/testbed.Cluster.Backend":       "the testbed's actuation backend, run by the conformance suite; ROADMAP item 9 wires the testbed controller to it",
}

// TestReachability keeps production code reachable: every exported
// function or method in a non-test file under internal/, cmd/ or
// examples/ must be used by non-test code somewhere in the module
// (benchmark/ included), or implement an interface method, or be on
// reachAllowlist. The root package is the public library API and is
// exempt as a declaration site.
//
// All module packages are type-checked from source in dependency order
// through one shared importer, so a function's *types.Func is the same
// object in its own package and in every importer; the standard
// library comes from the compiler's export data.
func TestReachability(t *testing.T) {
	pkgs, err := goList()
	if err != nil {
		t.Fatal(err)
	}
	r, err := check(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	dead := r.unreachable()
	var msgs []string
	for key, pos := range dead {
		if _, ok := reachAllowlist[key]; !ok {
			msgs = append(msgs, pos+": "+key+" has no non-test use and implements no interface method")
		}
	}
	for key := range reachAllowlist {
		if _, ok := r.declared[key]; !ok {
			msgs = append(msgs, "reachAllowlist: "+key+" is not an exported function or method any more; drop the entry")
		} else if _, ok := dead[key]; !ok {
			msgs = append(msgs, "reachAllowlist: "+key+" is reachable now; drop the entry")
		}
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		t.Error(m)
	}
}

// listedPackage is the subset of `go list -json` output the scan needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

// goList returns the module's packages and all their dependencies,
// dependencies first.
func goList() ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, errors.New("go list: " + err.Error() + ": " + stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// moduleImporter resolves module packages from the ones already
// checked and everything else from export data.
type moduleImporter struct {
	mod map[string]*types.Package
	std types.Importer
}

func (im moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.mod[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// reach is the result of one scan.
type reach struct {
	// declared maps each checked declaration's key to its object.
	declared map[string]*types.Func
	pos      map[*types.Func]string
	// used holds every function a non-test file refers to outside the
	// function's own body, or that satisfies an interface method.
	used map[*types.Func]bool
}

func check(pkgs []listedPackage) (*reach, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	im := moduleImporter{
		mod: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok || f == "" {
				return nil, errors.New("no export data for " + path)
			}
			return os.Open(f)
		}),
	}
	r := &reach{declared: map[string]*types.Func{}, pos: map[*types.Func]string{}, used: map[*types.Func]bool{}}
	bodies := map[*types.Func][2]token.Pos{}
	type use struct {
		at token.Pos
		fn *types.Func
	}
	var uses []use
	ifaces := map[*types.Interface]bool{}
	var named []*types.Named
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: im}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		im.mod[p.ImportPath] = pkg

		rel := strings.TrimPrefix(p.ImportPath, "atm/")
		checked := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				bodies[fn] = [2]token.Pos{fd.Pos(), fd.End()}
				if checked && fd.Name.IsExported() {
					key := p.ImportPath + "." + fd.Name.Name
					if fd.Recv != nil {
						key = p.ImportPath + "." + recvName(fn) + "." + fd.Name.Name
					}
					r.declared[key] = fn
					r.pos[fn] = fset.Position(fd.Pos()).String()
				}
			}
		}
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses = append(uses, use{id.Pos(), fn.Origin()})
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	// Named interfaces of every package the module reaches, stdlib
	// included (http.Flusher, sort.Interface, json.Marshaler, ...).
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range im.mod {
		walk(p)
	}
	for _, it := range errorsProtocol() {
		ifaces[it] = true
	}

	for _, u := range uses {
		if b, ok := bodies[u.fn]; ok && u.at >= b[0] && u.at < b[1] {
			continue // recursion is not a use
		}
		r.used[u.fn] = true
	}
	// A method reached through an interface counts as used: for every
	// module type whose method set satisfies an interface, mark the
	// methods that interface selects, promoted ones included.
	for _, n := range named {
		if _, ok := n.Underlying().(*types.Interface); ok {
			continue
		}
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		if ms.Len() == 0 {
			continue
		}
		for it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
					r.used[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	return r, nil
}

// errorsProtocol returns the interfaces package errors asserts inside
// Is, As and Unwrap. They are declared in no package scope, so the scan
// would otherwise miss every Unwrap/Is/As method it reaches.
func errorsProtocol() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	tuple := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewVar(token.NoPos, nil, "", t)) }
	method := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	boolean := tuple(types.Typ[types.Bool])
	return []*types.Interface{
		method("Unwrap", nil, tuple(errType)),
		method("Unwrap", nil, tuple(types.NewSlice(errType))),
		method("Is", tuple(errType), boolean),
		method("As", tuple(types.Universe.Lookup("any").Type()), boolean),
	}
}

// unreachable returns the declared functions with no use, keyed like
// reachAllowlist, with their source positions.
func (r *reach) unreachable() map[string]string {
	out := map[string]string{}
	for key, fn := range r.declared {
		if !r.used[fn] {
			out[key] = r.pos[fn]
		}
	}
	return out
}

// recvName is the receiver's type name without pointer or type
// arguments.
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

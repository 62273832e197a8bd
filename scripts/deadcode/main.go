// Command deadcode fails when a function of this module is linked into no
// binary the module ships. `make vet` runs it:
//
//	go run ./scripts/deadcode
//
// It builds every cmd/*, every examples/* and the bench module with
// inlining off (-gcflags=all=-l, so a function the compiler would inline
// keeps a symbol of its own), plus a throwaway main that references every
// exported identifier of the root package, so the library's API counts as
// linked. It then compares the binaries' symbols (go tool nm) with the
// non-test function and method declarations of the module's packages for
// this platform, and prints each declaration no binary contains as
// file:line. It exits 1 if there is one.
//
// A method that implements an interface method is reported only when no
// implementation of that interface method is linked: deleting it alone
// would not compile. Interfaces declared outside the module count as
// linked, since the standard library links implementations of its own.
package main

import (
	"bufio"
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
)

// allowed are functions only another package's tests call, so they cannot
// move into an export_test.go of their own package.
var allowed = map[string]string{
	"alohadb/internal/chaos.(*Network).DelayLink":                 "scenario and core tests delay one link of a chaos network",
	"alohadb/internal/chaos/oracle.(*History).DiscardEpochsAfter": "core's crash-recovery tests mark the epochs recovery rolled back",
	"alohadb/internal/calvin.(*Cluster).Get":                      "the tpcc and ycsb tests compare Calvin's final state with ALOHA-DB's",
}

func main() {
	root, modPath, err := module()
	if err != nil {
		fail(err)
	}
	pkgs, err := listPackages(root)
	if err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp("", "deadcode-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(tmp)

	decls, api, err := declarations(root, modPath, pkgs)
	if err != nil {
		fail(err)
	}
	syms, err := linkedSymbols(root, modPath, pkgs, api, tmp)
	if err != nil {
		fail(err)
	}
	bad := unlinked(decls, syms, allowed)
	for _, d := range bad {
		fmt.Printf("%s: %s is linked into no binary\n", d.pos, d.key)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d unlinked functions; delete them, or move a test-only one into its package's export_test.go\n", len(bad))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "deadcode:", err)
	os.Exit(2)
}

// decl is one function or method declaration.
type decl struct {
	key string // symbol name with type arguments stripped: pkg.F, pkg.T.M or pkg.(*T).M
	pos string // file:line
	// impls holds, for each interface method this method implements, the
	// keys of every implementation of it in the module (this one included).
	impls [][]string
	// external is set when the method implements a method of an interface
	// declared outside the module.
	external bool
}

// unlinked returns the declarations whose key is not in syms, in the
// order given, leaving out allowed keys and interface implementations
// whose interface method has a linked implementation.
func unlinked(decls []decl, syms map[string]bool, allow map[string]string) []decl {
	var out []decl
	for _, d := range decls {
		if syms[d.key] || allow[d.key] != "" || d.external || implLinked(d, syms) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func implLinked(d decl, syms map[string]bool) bool {
	for _, keys := range d.impls {
		for _, k := range keys {
			if syms[k] {
				return true
			}
		}
	}
	return false
}

// symbolKey turns a `go tool nm` symbol name into a declaration key: type
// arguments (`[go.shape.int]`, which may hold spaces) are stripped, and a
// main package's `main.` prefix becomes mainPath.
func symbolKey(name, mainPath string) string {
	name = stripBrackets(name)
	if mainPath != "" && strings.HasPrefix(name, "main.") {
		name = mainPath + name[len("main"):]
	}
	return name
}

func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// parseNM reads `go tool nm` output and adds every symbol's key to syms.
// A line is `address type name` (the address is blank for an undefined
// symbol); the name may contain spaces.
func parseNM(r io.Reader, mainPath string, syms map[string]bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f[0]) > 1 { // address
			f = f[1:]
		}
		if len(f) < 2 {
			continue
		}
		syms[symbolKey(strings.Join(f[1:], " "), mainPath)] = true
	}
	return sc.Err()
}

// fileDecls returns the keys of a file's top-level functions and methods,
// and their positions, leaving out init.
func fileDecls(fset *token.FileSet, f *ast.File, pkgPath string, rel func(string) string) []decl {
	var out []decl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
			continue
		}
		p := fset.Position(fd.Pos())
		out = append(out, decl{key: funcKey(pkgPath, fd), pos: fmt.Sprintf("%s:%d", rel(p.Filename), p.Line)})
	}
	return out
}

func funcKey(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgPath + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if ptr {
		return pkgPath + ".(*" + name + ")." + fd.Name.Name
	}
	return pkgPath + "." + name + "." + fd.Name.Name
}

// module returns the root directory and path of the enclosing module.
func module() (root, path string, err error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}} {{.Path}}").Output()
	if err != nil {
		return "", "", fmt.Errorf("go list -m: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 {
		return "", "", fmt.Errorf("go list -m: unexpected output %q", out)
	}
	return f[0], f[1], nil
}

type listed struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// listPackages lists the module's packages and every dependency, each
// after its dependencies, with the export data of each compiled.
func listPackages(root string) ([]*listed, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []*listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// inScope reports whether a package's functions are checked: the module's
// own packages, apart from this checker.
func inScope(p *listed, modPath string) bool {
	return p.Module != nil && p.Module.Path == modPath && !strings.HasPrefix(p.ImportPath, modPath+"/scripts/")
}

// declarations type-checks the module's packages from source and returns
// their declarations with the interface methods each implements, and the
// root package's exported API as Go expressions.
func declarations(root, modPath string, pkgs []*listed) ([]decl, []string, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil {
			return r
		}
		return name
	}

	var decls []decl
	var own []*types.Package
	for _, p := range pkgs {
		if p.Module == nil || p.Module.Path != modPath {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %w", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		if !inScope(p, modPath) {
			continue
		}
		own = append(own, tp)
		for _, f := range files {
			decls = append(decls, fileDecls(fset, f, p.ImportPath, rel)...)
		}
	}

	impls, external := interfaceImpls(own)
	for i := range decls {
		decls[i].impls = impls[decls[i].key]
		decls[i].external = external[decls[i].key]
	}
	return decls, rootAPI(checked[modPath]), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaceImpls maps each method key of the module's named types to the
// implementations of every module interface method it implements, and
// marks those that implement an interface declared outside the module.
func interfaceImpls(own []*types.Package) (map[string][][]string, map[string]bool) {
	var named []*types.Named
	var ifaces []*types.Named
	var outside []*types.Interface
	mine := map[*types.Package]bool{}
	for _, p := range own {
		mine[p] = true
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, q := range p.Imports() {
			walk(q)
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams() != nil {
				continue
			}
			iface, isIface := n.Underlying().(*types.Interface)
			switch {
			case isIface && mine[p]:
				ifaces = append(ifaces, n)
			case isIface && tn.Exported():
				outside = append(outside, iface)
			case !isIface && mine[p]:
				named = append(named, n)
			}
		}
	}
	for _, p := range own {
		walk(p)
	}
	outside = append(outside, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	impls := map[string][][]string{}
	external := map[string]bool{}
	for _, n := range named {
		for _, iface := range outside {
			if iface.NumMethods() == 0 || !implements(n, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if k := methodKey(n, iface.Method(i).Name()); k != "" {
					external[k] = true
				}
			}
		}
	}
	for _, in := range ifaces {
		iface := in.Underlying().(*types.Interface)
		var impl []*types.Named
		for _, n := range named {
			if implements(n, iface) {
				impl = append(impl, n)
			}
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i).Name()
			var keys []string
			for _, n := range impl {
				if k := methodKey(n, m); k != "" {
					keys = append(keys, k)
				}
			}
			for _, k := range keys {
				impls[k] = append(impls[k], keys)
			}
		}
	}
	return impls, external
}

func implements(n *types.Named, iface *types.Interface) bool {
	return types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface)
}

// methodKey returns the key of the method name declared on n itself
// (not promoted from an embedded field), or "".
func methodKey(n *types.Named, name string) string {
	for i := 0; i < n.NumMethods(); i++ {
		m := n.Method(i)
		if m.Name() != name {
			continue
		}
		recv := m.Type().(*types.Signature).Recv().Type()
		tn := n.Obj()
		if _, ptr := recv.(*types.Pointer); ptr {
			return tn.Pkg().Path() + ".(*" + tn.Name() + ")." + name
		}
		return tn.Pkg().Path() + "." + tn.Name() + "." + name
	}
	return ""
}

// rootAPI returns an expression for every exported function and variable
// of the root package and every exported method of its exported types,
// aliases of internal types included.
func rootAPI(p *types.Package) []string {
	if p == nil {
		return nil
	}
	var out []string
	scope := p.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			if o.Type().(*types.Signature).TypeParams() == nil {
				out = append(out, "alohadb."+name)
			}
		case *types.Var:
			out = append(out, "&alohadb."+name)
		case *types.TypeName:
			n, ok := types.Unalias(o.Type()).(*types.Named)
			if !ok || n.TypeParams() != nil {
				continue
			}
			if _, ok := n.Underlying().(*types.Interface); ok {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(n))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					out = append(out, "(*alohadb."+name+")."+m.Name())
				}
			}
		}
	}
	return out
}

// linkedSymbols builds every binary and returns the keys of the symbols
// linked into at least one of them.
func linkedSymbols(root, modPath string, pkgs []*listed, api []string, tmp string) (map[string]bool, error) {
	type bin struct{ path, mainPath string }
	var bins []bin
	var targets []string
	for _, p := range pkgs {
		if p.Name != "main" || !inScope(p, modPath) {
			continue
		}
		targets = append(targets, p.ImportPath)
		bins = append(bins, bin{filepath.Join(tmp, fmt.Sprint(len(bins))), p.ImportPath})
	}
	for i, t := range targets {
		if err := goBuild(root, bins[i].path, t); err != nil {
			return nil, err
		}
	}

	// The benchmark is a module of its own; `./...` does not reach it.
	b := bin{filepath.Join(tmp, "bench.bin"), ""}
	if err := goBuild(filepath.Join(root, "bench"), b.path, "."); err != nil {
		return nil, err
	}
	bins = append(bins, b)

	apiDir := filepath.Join(tmp, "api")
	if err := writeAPIMain(apiDir, root, modPath, api); err != nil {
		return nil, err
	}
	b = bin{filepath.Join(tmp, "api.bin"), ""}
	if err := goBuild(apiDir, b.path, "."); err != nil {
		return nil, err
	}
	bins = append(bins, b)

	syms := map[string]bool{}
	for _, b := range bins {
		cmd := exec.Command("go", "tool", "nm", b.path)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", b.path, err)
		}
		if err := parseNM(bytes.NewReader(out), b.mainPath, syms); err != nil {
			return nil, err
		}
	}
	return syms, nil
}

func goBuild(dir, out, target string) error {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", out, target)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s in %s: %w", target, dir, err)
	}
	return nil
}

// writeAPIMain writes a module in dir whose main references every
// expression of api, so that the root package's API is linked.
func writeAPIMain(dir, root, modPath string, api []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gomod := fmt.Sprintf("module deadcodeapi\n\ngo 1.23\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", modPath, modPath, root)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return err
	}
	sort.Strings(api)
	var src strings.Builder
	fmt.Fprintf(&src, "package main\n\nimport alohadb %q\n\nvar keep = []any{\n", modPath)
	for _, e := range api {
		fmt.Fprintf(&src, "\t%s,\n", e)
	}
	src.WriteString("}\n\nfunc main() { println(len(keep)) }\n")
	return os.WriteFile(filepath.Join(dir, "main.go"), []byte(src.String()), 0o644)
}

// Package deadapi holds a tier-1 gate, run by `go test ./...`, that fails
// when a package under internal/ exports a function or method no non-test
// code reaches. It has no main and no non-test files: the scan below runs
// only as part of its tests.
package deadapi

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
)

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// stdInterfaces are the methods the standard library reaches through
// interfaces the module never names: fmt prints through Stringer and
// error, errors.Is/As/Unwrap walk chains through anonymous interfaces.
const stdInterfaces = `package std
type _ interface{ Error() string }
type _ interface{ String() string }
type _ interface{ Unwrap() error }
type _ interface{ Is(error) bool }
`

// scan lists the exported functions and methods declared in non-test
// files under the first module's internal/ tree that no non-test file of
// any given module reaches. dirs are module roots; the first is the one
// whose internal/ tree is checked, the rest only contribute callers.
//
// Module packages are type-checked from source against each other, so a
// method called through an interface resolves to that interface's method
// object. Standard library imports come from the compiler's export data,
// as listed by `go list -deps -export`. Names come back sorted, as
// "internal/pkg.Func", "internal/pkg.(*T).Method", "internal/pkg.T.Method"
// or, for an interface's own method, "internal/pkg.Iface.Method".
func scan(dirs ...string) ([]string, error) {
	pkgs := map[string]*listedPackage{}
	var order []string
	var modPath string
	for i, dir := range dirs {
		listed, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			if i == 0 && modPath == "" && !p.Standard && p.Module != nil {
				modPath = p.Module.Path
			}
			if pkgs[p.ImportPath] == nil {
				pkgs[p.ImportPath] = p
				order = append(order, p.ImportPath)
			}
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("no module packages under %s", dirs[0])
	}

	fset := token.NewFileSet()
	exports := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p := pkgs[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.Export)
	})
	l := &loader{fset: fset, listed: pkgs, exports: exports,
		checked: map[string]*types.Package{}, infos: map[string]*types.Info{}, exported: map[string][]*types.Func{}}
	for _, path := range order {
		if !pkgs[path].Standard {
			if _, err := l.Import(path); err != nil {
				return nil, err
			}
		}
	}

	stdFile, err := parser.ParseFile(fset, "std.go", stdInterfaces, 0)
	if err != nil {
		return nil, err
	}
	stdInfo := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{}).Check("std", fset, []*ast.File{stdFile}, stdInfo); err != nil {
		return nil, err
	}

	// Every interface any module file names, literal or declared, plus the
	// standard ones; every named type the module declares; and every
	// function value or method call in module code.
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	var named []types.Type
	used := map[*types.Func]bool{}
	collect := func(info *types.Info) {
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && !seen[it] {
				seen[it] = true
				ifaces = append(ifaces, it)
			}
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	collect(stdInfo)
	for _, path := range order {
		if info := l.infos[path]; info != nil {
			collect(info)
		}
	}
	// A method is reached through an interface when a named type whose
	// method set holds it, declared or promoted, satisfies an interface
	// with that method. An interface's own method is not reached through
	// itself or through an interface that embeds it.
	for _, it := range ifaces {
		for _, n := range named {
			t := n
			if _, isIface := n.Underlying().(*types.Interface); !isIface {
				t = types.NewPointer(n)
			}
			if !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok && fn != m {
					used[fn.Origin()] = true
				}
			}
		}
	}

	prefix := modPath + "/internal/"
	var dead []string
	for _, path := range order {
		if !strings.HasPrefix(path+"/", prefix) {
			continue
		}
		for _, fn := range l.exported[path] {
			if !used[fn] {
				dead = append(dead, strings.TrimPrefix(path, modPath+"/")+"."+funcName(fn))
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// funcName renders fn as Func, (*T).Method, T.Method or Iface.Method.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		return "(*" + p.Elem().(*types.Named).Obj().Name() + ")." + fn.Name()
	}
	return t.(*types.Named).Obj().Name() + "." + fn.Name()
}

// loader type-checks module packages from source on first import and
// serves standard library packages from export data.
type loader struct {
	fset     *token.FileSet
	listed   map[string]*listedPackage
	exports  types.Importer
	checked  map[string]*types.Package
	infos    map[string]*types.Info
	exported map[string][]*types.Func
}

func (l *loader) Import(path string) (*types.Package, error) {
	if pkg := l.checked[path]; pkg != nil {
		return pkg, nil
	}
	p := l.listed[path]
	if p == nil || p.Standard {
		return l.exports.Import(path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.checked[path], l.infos[path] = pkg, info
	l.exported[path] = exportedFuncs(files, info)
	return pkg, nil
}

// exportedFuncs returns the exported package-level functions, methods and
// package-level interface methods declared in files.
func exportedFuncs(files []*ast.File, info *types.Info) []*types.Func {
	var out []*types.Func
	add := func(id *ast.Ident) {
		if fn, ok := info.Defs[id].(*types.Func); ok && id.IsExported() {
			out = append(out, fn)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, id := range m.Names {
								add(id)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// goList runs `go list -deps -export -json ./...` in dir.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=Dir,ImportPath,Export,GoFiles,Standard,Module,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

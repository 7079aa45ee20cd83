package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sync"
)

// UnusedExport flags an exported function, method or untagged struct
// field that no non-test file of the module (bench/, cmd/, examples/
// included) references and no other package's tests name. The declaring
// package's own tests are not a use (DESIGN.md §13). Methods of an
// interface the receiver implements are exempt (of a generic one, the
// instance its method signatures infer), and so are tagged fields,
// which encoders reach by reflection.
var UnusedExport = &Analyzer{
	Name: "unusedexport",
	Doc:  "exported functions, methods and untagged struct fields must be reached by a non-test file or by another package's tests",
	Run: func(pass *Pass) {
		idx := pass.module.index()
		check := func(id *ast.Ident, kind, testKey string, exempt bool) {
			obj := pass.Info.Defs[id]
			if id.IsExported() && obj != nil && !exempt && !idx.used[obj] && !idx.testedElsewhere(testKey, pass.RelPath) {
				pass.Reportf(id.Pos(), "exported %s %s is used by no non-test file and no other package's tests", kind, id.Name)
			}
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					if fn, _ := pass.Info.Defs[d.Name].(*types.Func); d.Recv == nil {
						check(d.Name, "func", pass.Pkg.Name()+"."+d.Name.Name, false)
					} else {
						check(d.Name, "method", d.Name.Name, fn != nil && idx.implements(fn))
					}
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						for _, f := range st.Fields.List {
							for _, name := range f.Names {
								check(name, "field", name.Name, f.Tag != nil)
							}
						}
					}
					return true
				})
			}
		}
	},
}

// module is one RunWith's package set and the use index built from it.
type module struct {
	pkgs []*Package
	once sync.Once
	idx  *useIndex
}

// useIndex records what the module references.
type useIndex struct {
	used map[types.Object]bool // by non-test files; generic members by origin
	// tests maps "pkg.Name", a selector or a composite-literal key to the
	// package directories whose _test.go files mention it: syntactic, so
	// it can only over-count uses.
	tests map[string]map[string]bool
	// ifaces lists the interfaces declaring each method name: an
	// *types.Interface, or the *types.Named of a generic one.
	ifaces map[string][]types.Type
}

// index builds the use index over the whole module, whatever subset
// the run holds, plus the run's own packages (fixtures under testdata).
func (m *module) index() *useIndex {
	m.once.Do(func() {
		idx := &useIndex{used: map[types.Object]bool{}, tests: map[string]map[string]bool{}, ifaces: map[string][]types.Type{}}
		errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
		// error declares Error; errors.Is, As and Unwrap call the rest
		// through interfaces the API-only stdlib load does not see.
		for _, name := range []string{"Error", "Unwrap", "Is", "As"} {
			idx.ifaces[name] = append(idx.ifaces[name], errIface)
		}
		l := m.pkgs[0].loader
		pkgs, rels := m.pkgs, map[string]bool{"": true} // the root holds only tests
		if all, err := l.LoadModule(); err == nil {
			pkgs = append(all, pkgs...)
		}
		for _, c := range l.cache {
			if c.pkg != nil {
				idx.addIfaces(c.pkg)
			}
		}
		for _, p := range pkgs {
			idx.addIfaces(p.Types)
			for _, obj := range p.Info.Uses {
				switch o := obj.(type) {
				case *types.Func:
					idx.used[o.Origin()] = true
				case *types.Var:
					idx.used[o.Origin()] = true
				}
			}
			rels[p.RelPath] = true
		}
		fset := token.NewFileSet()
		for rel := range rels {
			names, _ := filepath.Glob(filepath.Join(l.ModRoot, filepath.FromSlash(rel), "*_test.go"))
			for _, name := range names {
				if f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution); err == nil {
					idx.addTestFile(f, rel)
				}
			}
		}
		m.idx = idx
	})
	return m.idx
}

// addIfaces indexes the methods of p's interface types.
func (idx *useIndex) addIfaces(p *types.Package) {
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			var entry types.Type = it
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				entry = n
			}
			for i := 0; i < it.NumMethods(); i++ {
				idx.ifaces[it.Method(i).Name()] = append(idx.ifaces[it.Method(i).Name()], entry)
			}
		}
	}
}

// addTestFile records the "pkg.Name" qualified identifiers, selectors
// and composite-literal keys one _test.go file in package directory rel
// mentions.
func (idx *useIndex) addTestFile(f *ast.File, rel string) {
	add := func(key string) {
		if idx.tests[key] == nil {
			idx.tests[key] = map[string]bool{}
		}
		idx.tests[key][rel] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				add(x.Name + "." + n.Sel.Name)
			}
			add(n.Sel.Name)
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok {
				add(k.Name)
			}
		}
		return true
	})
}

// testedElsewhere reports whether a test file outside package
// directory rel mentions key.
func (idx *useIndex) testedElsewhere(key, rel string) bool {
	rels := idx.tests[key]
	return len(rels) > 1 || len(rels) == 1 && !rels[rel]
}

// implements reports whether fn's receiver type, or a pointer to it,
// implements an interface that declares fn. A generic interface is
// first instantiated with the type arguments that unifying its method
// signatures with the receiver's infers; a generic receiver is matched
// by method name alone.
func (idx *useIndex) implements(fn *types.Func) bool {
	recv := types.Unalias(fn.Type().(*types.Signature).Recv().Type())
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	generic := ok && n.TypeParams().Len() > 0
	for _, t := range idx.ifaces[fn.Name()] {
		it, ok := t.(*types.Interface)
		if !ok && !generic {
			if it = instantiate(t.(*types.Named), recv); it == nil {
				continue
			}
		}
		if generic || types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// instantiate returns the instance of the generic interface n whose
// methods recv's (or *recv's) methods of the same names match, or nil
// when no instance does.
func instantiate(n *types.Named, recv types.Type) *types.Interface {
	it := n.Underlying().(*types.Interface)
	ms := types.NewMethodSet(types.NewPointer(recv))
	bound := map[*types.TypeParam]types.Type{}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil || !unify(m.Type(), sel.Obj().Type(), bound) {
			return nil
		}
	}
	args := make([]types.Type, n.TypeParams().Len())
	for i := range args {
		if args[i] = bound[n.TypeParams().At(i)]; args[i] == nil {
			return nil
		}
	}
	inst, err := types.Instantiate(nil, n, args, true)
	if err != nil {
		return nil
	}
	return inst.Underlying().(*types.Interface)
}

// unify matches pattern, a type over type parameters, against t,
// binding each parameter to the type it stands for.
func unify(pattern, t types.Type, bound map[*types.TypeParam]types.Type) bool {
	pattern, t = types.Unalias(pattern), types.Unalias(t)
	switch p := pattern.(type) {
	case *types.TypeParam:
		if b, ok := bound[p]; ok {
			return types.Identical(b, t)
		}
		bound[p] = t
		return true
	case *types.Signature:
		s, ok := t.(*types.Signature)
		return ok && p.Variadic() == s.Variadic() && unifyTuple(p.Params(), s.Params(), bound) && unifyTuple(p.Results(), s.Results(), bound)
	case *types.Pointer:
		q, ok := t.(*types.Pointer)
		return ok && unify(p.Elem(), q.Elem(), bound)
	case *types.Slice:
		q, ok := t.(*types.Slice)
		return ok && unify(p.Elem(), q.Elem(), bound)
	case *types.Array:
		q, ok := t.(*types.Array)
		return ok && p.Len() == q.Len() && unify(p.Elem(), q.Elem(), bound)
	case *types.Map:
		q, ok := t.(*types.Map)
		return ok && unify(p.Key(), q.Key(), bound) && unify(p.Elem(), q.Elem(), bound)
	case *types.Chan:
		q, ok := t.(*types.Chan)
		return ok && p.Dir() == q.Dir() && unify(p.Elem(), q.Elem(), bound)
	case *types.Named:
		q, ok := t.(*types.Named)
		if !ok || p.Origin() != q.Origin() || p.TypeArgs().Len() != q.TypeArgs().Len() {
			return false
		}
		for i := 0; i < p.TypeArgs().Len(); i++ {
			if !unify(p.TypeArgs().At(i), q.TypeArgs().At(i), bound) {
				return false
			}
		}
		return true
	}
	return types.Identical(pattern, t)
}

// unifyTuple unifies two parameter or result lists element-wise.
func unifyTuple(pattern, t *types.Tuple, bound map[*types.TypeParam]types.Type) bool {
	if pattern.Len() != t.Len() {
		return false
	}
	for i := 0; i < pattern.Len(); i++ {
		if !unify(pattern.At(i).Type(), t.At(i).Type(), bound) {
			return false
		}
	}
	return true
}

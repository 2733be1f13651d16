package pathhist

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pathhist/internal/analysis"
)

// seamMarker opens the doc-comment line that keeps an exported name whose
// only callers are the tests of other packages, e.g.
// "// Test seam for pathhist/internal/ttserve." — the line names those
// packages.
const seamMarker = "Test seam for "

// TestExportedNamesHaveProductionCallers fails on any exported function,
// method, type, variable or constant under internal/ that no non-test file
// of the module or of the benchmark module (bench/) uses: a name only tests
// need lives in a _test.go file of its package. Exempt are methods that
// satisfy an interface the program declares or imports, iota enumeration
// members, main packages and declarations carrying the seam marker. An
// unused method of a type the root package re-exports through an alias
// (Graph, Path, Histogram, Store, Entry, ...) is public API: it is logged,
// not failed. Skipped under -short: it runs go list and typechecks both
// modules.
func TestExportedNamesHaveProductionCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the module and bench/")
	}
	start := time.Now()
	scan, err := scanExportedNames(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range scan.public {
		t.Logf("public API through a root alias, no production caller: %s", name)
	}
	for _, name := range scan.dead {
		t.Errorf("%s has no production caller: delete it, move it into a _test.go file, or mark it %q naming the packages whose tests need it", name, seamMarker+"...")
	}
	t.Logf("%d exported declarations under internal/: %d dead, %d public API, %d seams, %d interface methods, %d iota members (%v)",
		scan.decls, len(scan.dead), len(scan.public), scan.seams, scan.ifaceMethods, scan.iotaMembers, time.Since(start).Round(time.Millisecond))
}

// TestExportedNamesGuardFixture runs the scan over a small module whose
// every declaration is one case of the rule.
func TestExportedNamesGuardFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks a fixture module")
	}
	scan, err := scanExportedNames(filepath.Join("testdata", "exportguard"))
	if err != nil {
		t.Fatal(err)
	}
	wantDead := []string{
		"internal/kit/kit.go:20: kit.Dead",
		"internal/kit/kit.go:23: kit.Recur",
		"internal/kit/kit.go:34: kit.Box.Dead",
		"internal/kit/kit.go:37: kit.TestOnly",
	}
	wantPublic := []string{"internal/kit/kit.go:44: kit.Thing.Public"}
	if !slices.Equal(scan.dead, wantDead) {
		t.Errorf("dead = %q, want %q", scan.dead, wantDead)
	}
	if !slices.Equal(scan.public, wantPublic) {
		t.Errorf("public = %q, want %q", scan.public, wantPublic)
	}
	// hHeap's Len/Less/Swap/Push/Pop and importer.Import; Low/Mid/High; Seam.
	if scan.ifaceMethods != 6 || scan.iotaMembers != 3 || scan.seams != 1 {
		t.Errorf("interface methods %d, iota members %d, seams %d; want 6, 3, 1", scan.ifaceMethods, scan.iotaMembers, scan.seams)
	}
}

// exportScan is what scanExportedNames finds under internal/. Names read
// "file:line: pkg.Recv.Name", with the file relative to the module.
type exportScan struct {
	dead, public                            []string
	decls, seams, ifaceMethods, iotaMembers int
}

// scanExportedNames loads the module at dir and each extra module (a
// directory relative to dir whose uses of the module count as production
// uses), typechecks their non-test files and reports every exported
// declaration under the module's internal/ that no file uses outside the
// declaration itself.
func scanExportedNames(dir string, extra ...string) (exportScan, error) {
	var scan exportScan
	pkgs, err := analysis.LoadPackages(dir, "./...")
	if err != nil {
		return scan, err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return scan, err
	}
	var root *analysis.Package
	for _, p := range pkgs {
		if p.Dir == absDir {
			root = p
		}
	}
	if root == nil {
		return scan, fmt.Errorf("no package at the module root %s", absDir)
	}
	internal := root.Path + "/internal/"
	used := make(map[string]bool)
	for _, p := range pkgs {
		markUses(p, used)
	}
	for _, d := range extra {
		more, err := analysis.LoadPackages(filepath.Join(dir, d), "./...")
		if err != nil {
			return scan, err
		}
		for _, p := range more {
			markUses(p, used)
		}
	}

	aliased := make(map[string]bool)
	for _, name := range root.Types.Scope().Names() {
		if tn, ok := root.Types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				aliased[objKey(n.Obj())] = true
			}
		}
	}
	ifaceMethods := interfaceMethods(pkgs)

	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, internal) || p.Types.Name() == "main" {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				for _, d := range exportedDecls(p, decl) {
					scan.decls++
					switch {
					case d.seam:
						scan.seams++
					case d.iota:
						scan.iotaMembers++
					case ifaceMethods[objKey(d.obj)]:
						scan.ifaceMethods++
					case used[objKey(d.obj)]:
					default:
						pos := p.Fset.Position(d.obj.Pos())
						rel, err := filepath.Rel(absDir, pos.Filename)
						if err != nil {
							return scan, err
						}
						name := fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, displayName(d.obj))
						if recv := recvNamed(d.obj); recv != nil && aliased[objKey(recv.Obj())] {
							scan.public = append(scan.public, name)
						} else {
							scan.dead = append(scan.dead, name)
						}
					}
				}
			}
		}
	}
	return scan, nil
}

// exported is one exported name a top-level declaration introduces.
type exported struct {
	obj        types.Object
	seam, iota bool
}

func exportedDecls(p *analysis.Package, decl ast.Decl) []exported {
	var out []exported
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() {
			out = append(out, exported{obj: p.Info.Defs[d.Name], seam: hasSeamMarker(d.Doc)})
		}
	case *ast.GenDecl:
		iota := d.Tok == token.CONST && usesIota(p, d)
		for _, spec := range d.Specs {
			var doc *ast.CommentGroup
			var names []*ast.Ident
			switch s := spec.(type) {
			case *ast.TypeSpec:
				doc, names = s.Doc, []*ast.Ident{s.Name}
			case *ast.ValueSpec:
				doc, names = s.Doc, s.Names
			}
			seam := hasSeamMarker(doc) || (len(d.Specs) == 1 && hasSeamMarker(d.Doc))
			for _, n := range names {
				if n.IsExported() {
					out = append(out, exported{obj: p.Info.Defs[n], seam: seam, iota: iota})
				}
			}
		}
	}
	return out
}

func hasSeamMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(line, seamMarker) {
			return true
		}
	}
	return false
}

// usesIota reports whether a const group is an iota enumeration.
func usesIota(p *analysis.Package, d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == types.Universe.Lookup("iota") {
			found = true
		}
		return !found
	})
	return found
}

// markUses records every object p's files use outside the top-level
// declaration that defines it, so recursion, a self-referential type and a
// method's receiver do not keep a name alive. A selected method or field
// also marks its receiver's type as used.
func markUses(p *analysis.Package, used map[string]bool) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			own := make(map[types.Object]bool)
			switch d := decl.(type) {
			case *ast.FuncDecl:
				own[p.Info.Defs[d.Name]] = true
				if d.Recv != nil {
					if recv := recvNamed(p.Info.Defs[d.Name]); recv != nil {
						own[recv.Obj()] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						own[p.Info.Defs[s.Name]] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							own[p.Info.Defs[n]] = true
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := origin(p.Info.Uses[n]); tracked(obj) && !own[obj] {
						used[objKey(obj)] = true
					}
				case *ast.SelectorExpr:
					if sel := p.Info.Selections[n]; sel != nil {
						if recv := namedOf(sel.Recv()); recv != nil && tracked(recv.Origin().Obj()) && !own[recv.Origin().Obj()] {
							used[objKey(recv.Origin().Obj())] = true
						}
					}
				}
				return true
			})
		}
	}
}

// interfaceMethods returns the methods, keyed by objKey, that some type of
// the program needs to satisfy an interface the program declares or imports
// (transitively), an unnamed interface one of its expressions has, or the
// Unwrap interface errors.Is and errors.As assert to. A method promoted
// through embedding counts for the embedding type too.
func interfaceMethods(pkgs []*analysis.Package) map[string]bool {
	byName := make(map[string][]*types.Interface)
	seen := make(map[types.Type]bool)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	errResult := types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type()))
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, errResult, false))
	addIface(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	seenPkg := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	// The concrete types: every named type the program defines or
	// instantiates.
	var concrete []types.Type
	addConcrete := func(t types.Type) {
		n := namedOf(t)
		if n == nil || seen[n] || n.TypeParams().Len() > n.TypeArgs().Len() {
			return
		}
		seen[n] = true
		if _, ok := n.Underlying().(*types.Interface); !ok {
			concrete = append(concrete, n, types.NewPointer(n))
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
				addConcrete(tv.Type)
			}
		}
		for _, obj := range p.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addConcrete(tn.Type())
			}
		}
	}
	out := make(map[string]bool)
	for _, t := range concrete {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj().(*types.Func).Origin()
			if m.Pkg() == nil || out[objKey(m)] {
				continue
			}
			for _, it := range byName[m.Name()] {
				if types.Implements(t, it) {
					out[objKey(m)] = true
					break
				}
			}
		}
	}
	return out
}

// tracked reports whether obj is a package-level name or a method, the
// objects objKey names.
func tracked(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return recvNamed(obj) != nil || obj.Parent() == obj.Pkg().Scope()
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvNamed returns the named receiver type of a method, nil otherwise.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	return namedOf(recv.Type())
}

func namedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// objKey names an object identically in every load: package path, the
// receiver type for a method, and the name.
func objKey(obj types.Object) string {
	if recv := recvNamed(obj); recv != nil {
		return obj.Pkg().Path() + "." + recv.Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func displayName(obj types.Object) string {
	if recv := recvNamed(obj); recv != nil {
		return obj.Pkg().Name() + "." + recv.Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

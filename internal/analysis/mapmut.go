package analysis

import (
	"go/ast"
	"go/types"
)

const snapioPkg = "pathhist/internal/snapio"

// columnReaders are the snapio.Reader methods (plus the generic free
// function) that return a column slice. Under a mapped reader (DESIGN.md
// §15) these are zero-copy views of a PROT_READ file mapping.
var columnReaders = map[string]bool{
	"I32s": true,
	"I64s": true,
	"U16s": true,
	"U64s": true,
}

// MapMut enforces the zero-copy decoding contract of DESIGN.md §15: a slice
// obtained from a snapio.Reader column method (I32s, I64s, U16s, U64s,
// or the generic snapio.ReadI32s) may be a view over a read-only mmap'd
// snapshot file, so writing through it is at best a hidden detach-to-heap
// bug and at worst a SIGSEGV against a PROT_READ page in production. Decoded
// columns are frozen: code that needs to grow or edit one must copy it to
// the heap first (temporal.FrozenIndex.detached is the pattern).
//
// The pass flags assignments, op-assignments, ++/-- and copy() whose
// destination indexes a value returned by a column reader — directly
// (r.I64s()[0] = x) or through a variable, with aliases tracked one hop
// deep (col := r.I64s(); c2 := col; c2[i] = x is still flagged). Rebinding
// the variable itself (col = append(...)) is not a write through the view
// and is the sanctioned detach idiom.
var MapMut = &Analyzer{
	Name: "mapmut",
	Doc: "writes through slices returned by snapio.Reader column methods are " +
		"forbidden: under a mapped reader they are read-only views of the " +
		"snapshot file; copy the column to the heap before mutating",
	Run: runMapMut,
}

func runMapMut(pass *Pass) {
	for _, f := range pass.Files {
		for _, unit := range functionUnits(f) {
			checkMapMutUnit(pass, unit)
		}
	}
}

// isColumnReader reports whether f is a snapio column reader: a Reader
// method from columnReaders, or the package-level generic ReadI32s.
func isColumnReader(f *types.Func) bool {
	if f == nil {
		return false
	}
	pkg, recv := funcOwner(f)
	if pkg != snapioPkg {
		return false
	}
	if recv == "Reader" && columnReaders[f.Name()] {
		return true
	}
	return recv == "" && f.Name() == "ReadI32s"
}

// isColumnReadCall reports whether e (unparenthesized) calls a snapio column
// reader, through any call shape — method value, package selector, or an
// explicit generic instantiation like snapio.ReadI32s[int32](r).
func isColumnReadCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // generic instantiation
		fun = ast.Unparen(ix.X)
	}
	switch fn := fun.(type) {
	case *ast.SelectorExpr:
		f, _ := pass.Info.Uses[fn.Sel].(*types.Func)
		return isColumnReader(f)
	case *ast.Ident:
		f, _ := pass.Info.Uses[fn].(*types.Func)
		return isColumnReader(f)
	}
	return false
}

// columnViewSource reports whether e reads a column view: a column reader
// call, optionally re-sliced, or (one hop) a variable already known to hold
// one.
func columnViewSource(pass *Pass, e ast.Expr, views map[types.Object]bool) bool {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	if isColumnReadCall(pass, e) {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.Info.Uses[id]; obj != nil {
			return views[obj]
		}
	}
	return false
}

// checkMapMutUnit analyzes one function body: collect the variables bound to
// column views (two rounds, so an alias declared before its source's binding
// order still resolves one hop), then flag writes through them.
func checkMapMutUnit(pass *Pass, unit funcUnit) {
	views := make(map[types.Object]bool) // variables holding reader column views
	objOf := func(id *ast.Ident) types.Object {
		if obj, ok := pass.Info.Defs[id]; ok && obj != nil {
			return obj
		}
		return pass.Info.Uses[id]
	}
	for round := 0; round < 2; round++ {
		walkUnit(unit.body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := objOf(id)
				if obj == nil {
					continue
				}
				if columnViewSource(pass, as.Rhs[i], views) {
					views[obj] = true
				}
			}
			return true
		})
	}

	report := func(dst ast.Expr, how string) {
		pass.Reportf(dst.Pos(), "write through a snapio.Reader column view (%s): under a mapped "+
			"reader the slice aliases the read-only snapshot mapping; copy the column to the "+
			"heap before mutating", how)
	}
	// checkDst flags dst when it writes through a column view: an index (or
	// re-slice, for copy destinations) rooted in a view variable or directly
	// in a reader call.
	checkDst := func(dst ast.Expr) {
		e := ast.Unparen(dst)
		if sl, ok := e.(*ast.SliceExpr); ok { // copy(col[1:], ...) forms
			e = ast.Unparen(sl.X)
		}
		ix, ok := e.(*ast.IndexExpr)
		if ok {
			e = ast.Unparen(ix.X)
		}
		if isColumnReadCall(pass, e) {
			report(dst, "directly off the reader call")
			return
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && views[obj] {
				report(dst, "via "+id.Name)
			}
		}
	}

	walkUnit(unit.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				// Rebinding the variable (col = append(...)) detaches; only
				// element writes go through the view.
				if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					continue
				}
				checkDst(lhs)
			}
		case *ast.IncDecStmt:
			checkDst(st.X)
		case *ast.CallExpr:
			if isBuiltin(pass.Info, st, "copy") && len(st.Args) == 2 {
				checkDst(st.Args[0])
			}
		}
		return true
	})
}

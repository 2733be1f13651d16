package analysis

import (
	"go/ast"
	"go/types"
)

// CancelPoll enforces the deadline-bounding contract of DESIGN.md §12: the
// scan loops over the frozen temporal columns are the only unbounded work
// between two cancellation checks, so every such loop must poll
// Scratch.Canceled at the established stride. A loop that sweeps a column
// without polling turns a 50 ms deadline into "whenever the window ends" —
// the serving layer's 504 fires, but the CPU keeps scanning.
//
// Scope: functions that hold a *snt.Scratch (parameter or receiver field
// access is what distinguishes a query-path scan from construction and
// compaction code, which are not cancellable). Within those, every for or
// range loop that reads a temporal.FrozenIndex column or the
// temporal.FrozenForest cumulative column — directly or through a local
// alias (ts := fx.Ts) — must contain a call to (*snt.Scratch).Canceled
// somewhere in its body.
var CancelPoll = &Analyzer{
	Name: "cancelpoll",
	Doc: "scan loops over frozen columns in Scratch-holding functions must " +
		"poll Scratch.Canceled so deadlines bound scan time",
	Packages: []string{sntPkg, "cancelpoll"},
	Run:      runCancelPoll,
}

func runCancelPoll(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !holdsScratch(pass, fd) {
				continue
			}
			aliases := columnAliases(pass, fd.Body)
			checkLoops(pass, fd.Body, aliases)
		}
	}
}

// holdsScratch reports whether the function receives a *snt.Scratch
// through its parameters or receiver.
func holdsScratch(pass *Pass, fd *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, p := range fl.List {
			if t := pass.TypeOf(p.Type); t != nil && isScratchPtr(t) {
				return true
			}
		}
		return false
	}
	return check(fd.Type.Params) || check(fd.Recv)
}

// columnAliases collects local variables bound to a frozen column
// (v := fx.Ts or a reslice of it) anywhere in body.
func columnAliases(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	aliases := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if _, _, ok := columnSource(pass, ast.Unparen(as.Rhs[i])); !ok {
				continue
			}
			if obj := objectOf(pass, id); obj != nil {
				aliases[obj] = true
			}
		}
		return true
	})
	return aliases
}

func objectOf(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// checkLoops walks body (closures included — the scratch is captured) and
// reports column-scanning loops without a Canceled poll.
func checkLoops(pass *Pass, body *ast.BlockStmt, aliases map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		var rangeX ast.Expr
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
			rangeX = l.X
		default:
			return true
		}
		scans := rangeX != nil && isColumnExpr(pass, rangeX, aliases)
		if !scans {
			ast.Inspect(loopBody, func(m ast.Node) bool {
				if scans {
					return false
				}
				if ix, ok := m.(*ast.IndexExpr); ok && isColumnExpr(pass, ix.X, aliases) {
					scans = true
					return false
				}
				return true
			})
		}
		if !scans {
			return true
		}
		polls := false
		ast.Inspect(loopBody, func(m ast.Node) bool {
			if polls {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if isMethod(calleeFunc(pass.Info, call), sntPkg, "Scratch", "Canceled") {
					polls = true
					return false
				}
			}
			return true
		})
		if !polls {
			pass.Reportf(n.Pos(),
				"scan loop over frozen columns never polls Scratch.Canceled; poll "+
					"every cancelStride records so deadlines bound scan time")
		}
		return true
	})
}

// isColumnExpr reports whether e reads a frozen column: a slice-typed
// selector off a FrozenIndex or FrozenForest, or a local alias of one.
func isColumnExpr(pass *Pass, e ast.Expr, aliases map[types.Object]bool) bool {
	e = ast.Unparen(e)
	if _, _, ok := columnSource(pass, e); ok {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.Info.Uses[id]; obj != nil && aliases[obj] {
			return true
		}
	}
	return false
}

package analysis

import (
	"go/ast"
	"go/types"
)

const sntPkg = "pathhist/internal/snt"

// PoolEscape enforces the pooled-scratch ownership contract (DESIGN.md §6):
// a *snt.Scratch obtained from AcquireScratch belongs to one goroutine for
// one bounded stretch of work and must go back to the pool on every path
// out of that stretch — including error and cancellation returns, which is
// why the release must be deferred, not sequenced. A scratch stored past
// return (into a field, global, map, channel, or closure-escaping slot)
// aliases pooled buffers that the next AcquireScratch hands to an unrelated
// query: silent cross-query corruption.
//
// Sub-rules:
//   - a function (or closure) calling snt.AcquireScratch must contain
//     `defer snt.ReleaseScratch(...)`; a sequenced release alone is flagged
//     (early returns and panics leak), a missing release doubly so;
//   - a *snt.Scratch must not be assigned to a field, element, package
//     variable, channel, or composite literal, and a function that
//     acquired one must not return it.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc: "pooled scratch must be released on every path (deferred release), " +
		"and must never be stored past return",
	Run: runPoolEscape,
}

func runPoolEscape(pass *Pass) {
	for _, f := range pass.Files {
		for _, unit := range functionUnits(f) {
			checkPoolUnit(pass, unit)
		}
	}
}

func isScratchPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNamed(p.Elem(), sntPkg, "Scratch")
}

func checkPoolUnit(pass *Pass, unit funcUnit) {
	var acquires []*ast.CallExpr
	releases, deferredReleases := 0, 0

	walkUnit(unit.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, st)
			switch {
			case isFunc(fn, sntPkg, "AcquireScratch"):
				acquires = append(acquires, st)
			case isFunc(fn, sntPkg, "ReleaseScratch"):
				releases++
			}
		case *ast.DeferStmt:
			if isFunc(calleeFunc(pass.Info, st.Call), sntPkg, "ReleaseScratch") {
				deferredReleases++
			}
		case *ast.AssignStmt:
			checkScratchStore(pass, st)
		case *ast.SendStmt:
			if t := pass.TypeOf(st.Value); t != nil && isScratchPtr(t) {
				pass.Reportf(st.Value.Pos(),
					"pooled *snt.Scratch sent on a channel; scratch must not outlive "+
						"the function that acquired it")
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if t := pass.TypeOf(v); t != nil && isScratchPtr(t) {
					pass.Reportf(v.Pos(),
						"pooled *snt.Scratch stored in a composite literal; scratch must "+
							"not be stored past return")
				}
			}
		case *ast.ReturnStmt:
			if len(acquires) == 0 {
				return true
			}
			for _, r := range st.Results {
				if t := pass.TypeOf(r); t != nil && isScratchPtr(t) {
					pass.Reportf(r.Pos(),
						"acquired *snt.Scratch returned to the caller; release it here "+
							"and let the caller acquire its own")
				}
			}
		}
		return true
	})

	// A return statement earlier in source than a later acquire is rare
	// enough not to matter for the ordering above; the lifetime rules are
	// what the pass owes its caller.
	if len(acquires) == 0 {
		return
	}
	if deferredReleases == 0 {
		for _, acq := range acquires {
			if releases > 0 {
				pass.Reportf(acq.Pos(),
					"AcquireScratch without a deferred ReleaseScratch: a sequenced "+
						"release leaks the scratch on early returns, panics and "+
						"cancellation paths — use `defer snt.ReleaseScratch(sc)`")
			} else {
				pass.Reportf(acq.Pos(),
					"AcquireScratch is never released in this function; every "+
						"acquired scratch must reach ReleaseScratch on all paths")
			}
		}
	}
}

// checkScratchStore flags assignments that store a *snt.Scratch anywhere
// but a plain local variable.
func checkScratchStore(pass *Pass, as *ast.AssignStmt) {
	n := len(as.Rhs)
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Lhs) == n {
			rhs = as.Rhs[i]
		} else if n == 1 {
			rhs = as.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		t := pass.TypeOf(rhs)
		if t == nil || !isScratchPtr(t) {
			continue
		}
		switch dst := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[dst]
			if obj == nil {
				obj = pass.Info.Defs[dst]
			}
			if v, ok := obj.(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
				pass.Reportf(lhs.Pos(),
					"pooled *snt.Scratch stored in package variable %s; scratch must "+
						"not be stored past return", dst.Name)
			}
		case *ast.SelectorExpr:
			pass.Reportf(lhs.Pos(),
				"pooled *snt.Scratch stored in a field; scratch must not be stored "+
					"past return")
		case *ast.IndexExpr:
			pass.Reportf(lhs.Pos(),
				"pooled *snt.Scratch stored in a map or slice element; scratch must "+
					"not be stored past return")
		}
	}
}

package analysis

import (
	"go/token"
	"sort"
)

// All returns the suite's analyzers, in rule-name order.
func All() []*Analyzer {
	return []*Analyzer{
		CancelPoll,
		FrozenMut,
		MapMut,
		PoolEscape,
		SnapPin,
		SyncErr,
	}
}

// ByName resolves rule names to analyzers (nil for unknown names).
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run loads the packages matching patterns (relative to dir) and applies
// the analyzers, returning the unsuppressed diagnostics sorted by position.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := LoadPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runPackage(pkg, analyzers)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// runPackage applies the analyzers to one loaded package and returns the
// unsuppressed diagnostics (plus any malformed-directive findings).
func runPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	sup, diags := collectSuppressions(pkg)
	for _, a := range analyzers {
		if !a.applies(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			report: func(pos token.Pos, msg string) {
				p := pkg.Fset.Position(pos)
				if sup.suppressed(a.Name, p) {
					return
				}
				diags = append(diags, Diagnostic{Pos: p, Rule: a.Name, Message: msg})
			},
		}
		a.Run(pass)
	}
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

package analysis

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
	"runtime"
	"sort"
)

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg mirrors the `go list -json` fields the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// LoadPackages loads the packages matching patterns (resolved relative to
// dir), typechecking each matched package from source. Dependencies —
// including the standard library — are imported from the compiler export
// data `go list -export` produces, so nothing beyond the Go toolchain is
// required and the load works offline. Test files are not included:
// the suite guards production code.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-json", "-deps", "-export", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	exports := make(map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: loading %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := checkFiles(fset, t.ImportPath, files, t.ImportMap, imp)
		if err != nil {
			return nil, err
		}
		pkg.Dir = t.Dir
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkFiles parses and typechecks one package from its source files, with
// imports resolved through imp (remapped via importMap first, as vendoring
// requires).
func checkFiles(fset *token.FileSet, importPath string, files []string, importMap map[string]string, imp types.Importer) (*Package, error) {
	parsed := make([]*ast.File, 0, len(files))
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %v", name, err)
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: &mappedImporter{imp: imp, importMap: importMap},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typechecking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: parsed, Types: tpkg, Info: info}, nil
}

// mappedImporter applies one package's import-path remapping before
// delegating to the shared export-data importer.
type mappedImporter struct {
	imp       types.Importer
	importMap map[string]string
}

func (m *mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	return m.imp.Import(path)
}

// newExportImporter returns an importer that reads dependencies from the
// export files go list reported, with "unsafe" resolved to types.Unsafe.
// The underlying gc importer caches packages, so one instance must be
// shared across all packages of a load (types identities line up).
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	})
	return &exportImporter{gc: gc}
}

type exportImporter struct {
	gc types.Importer
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.Import(path)
}

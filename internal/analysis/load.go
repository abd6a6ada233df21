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
)

// Package loading for the in-repo drivers: the tree-wide test and the
// standalone mode of cmd/simcheck. Metadata comes from `go list -export
// -deps -json`, which also yields a gc export-data file for every
// dependency (standard library included), so target packages are parsed
// and type-checked from source while their imports resolve through the
// compiler's own export files — the same scheme `go vet` uses, with no
// dependency outside the standard library and the go tool itself.

// Package is one parsed, type-checked package ready for RunAnalyzers.
type Package struct {
	// ImportPath is the package's canonical import path.
	ImportPath string
	// Fset maps positions of Files.
	Fset *token.FileSet
	// Files are the parsed sources (non-test: `go list` GoFiles).
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds type information for every expression in Files.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over the patterns and
// decodes the package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports through gc export-data files, honoring
// the per-package ImportMap (vendoring / test-variant remapping).
type exportImporter struct {
	compiler  types.Importer
	importMap map[string]string
}

// Import implements types.Importer.
func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := ei.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.compiler.Import(path)
}

// Load lists the patterns in dir (a module directory), then parses and
// type-checks every matched package. Dependencies — matched or not — are
// resolved from the gc export data `go list -export` produced, so loading
// a handful of packages does not type-check the world from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	compiler := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := typecheck(fset, p.ImportPath, files, &exportImporter{compiler: compiler, importMap: p.ImportMap})
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		out = append(out, &Package{ImportPath: p.ImportPath, Fset: fset, Files: files, Types: pkg, Info: info})
	}
	return out, nil
}

// typecheck runs the type checker over one package's files with a fully
// populated types.Info.
func typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

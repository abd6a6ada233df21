package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// fixtureLoader loads analyzer test fixtures from a GOPATH-style source
// tree (root/<importpath>/*.go). Fixture imports resolve within the tree
// first — so a fixture can model the sim package and a protocol package
// importing it — and fall back to gc export data for the standard library,
// obtained from one `go list -export -deps` over the std imports the
// fixture tree mentions.
type fixtureLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

// loadFixture loads the fixture package at importPath below root (along
// with any fixture packages it imports) and returns it ready for
// RunAnalyzers.
func loadFixture(root, importPath string) (*Package, error) {
	l := &fixtureLoader{root: root, fset: token.NewFileSet(), cache: map[string]*Package{}}
	stdImports, err := l.scanStdImports(importPath, map[string]bool{})
	if err != nil {
		return nil, err
	}
	if len(stdImports) > 0 {
		listed, err := goList(root, stdImports)
		if err != nil {
			return nil, err
		}
		exports := make(map[string]string, len(listed))
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
		l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
	}
	return l.load(importPath)
}

// isFixturePath reports whether the import resolves inside the fixture
// tree.
func (l *fixtureLoader) isFixturePath(path string) bool {
	st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path)))
	return err == nil && st.IsDir()
}

// scanStdImports walks the fixture import graph and collects every import
// that is not itself a fixture package.
func (l *fixtureLoader) scanStdImports(path string, seen map[string]bool) ([]string, error) {
	if seen[path] {
		return nil, nil
	}
	seen[path] = true
	files, err := l.parseDir(path)
	if err != nil {
		return nil, err
	}
	var std []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if l.isFixturePath(p) {
				sub, err := l.scanStdImports(p, seen)
				if err != nil {
					return nil, err
				}
				std = append(std, sub...)
			} else if !seen[p] {
				seen[p] = true
				std = append(std, p)
			}
		}
	}
	return std, nil
}

// parseDir parses every .go file of the fixture package at importPath.
func (l *fixtureLoader) parseDir(importPath string) ([]*ast.File, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", importPath, dir)
	}
	return files, nil
}

// Import implements types.Importer over the fixture tree with std
// fallback.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isFixturePath(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if l.std == nil {
		return nil, fmt.Errorf("fixture import %q: no std importer", path)
	}
	return l.std.Import(path)
}

// load parses and type-checks one fixture package, memoized.
func (l *fixtureLoader) load(importPath string) (*Package, error) {
	if p, ok := l.cache[importPath]; ok {
		return p, nil
	}
	files, err := l.parseDir(importPath)
	if err != nil {
		return nil, err
	}
	pkg, info, err := typecheck(l.fset, importPath, files, l)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", importPath, err)
	}
	p := &Package{ImportPath: importPath, Fset: l.fset, Files: files, Types: pkg, Info: info}
	l.cache[importPath] = p
	return p, nil
}

package equinox

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDesignInventoryMatchesTree holds DESIGN.md §2, the system inventory,
// to the tree: every directory of this module that holds non-test Go files
// has a row, and every path a row names exists. The root package's row
// names it by its import path, equinox. bench/ is its own module, with its
// own docs, and is not walked.
func TestDesignInventoryMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "\n## 2.")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 2")
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	rowName := regexp.MustCompile("^\\| `([^`]+)`")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		m := rowName.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		path := m[1]
		if path == "equinox" {
			path = "."
		}
		rows[path] = true
		if _, err := os.Stat(path); err != nil {
			t.Errorf("DESIGN.md §2 names %s, which does not exist", m[1])
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §2 has no rows")
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.ToSlash(filepath.Dir(path))
			if !rows[dir] {
				t.Errorf("%s holds Go code but has no DESIGN.md §2 row", dir)
				rows[dir] = true // one report per directory
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPackageLayering holds the simulator's lower layers to their imports:
// the non-test files of each package below import no package of this module
// but the ones its row allows. internal/noc knows only geom, so every
// instrument — probe, telemetry, flight recorder — sits above the kernel.
func TestPackageLayering(t *testing.T) {
	for _, layer := range []struct {
		dir     string
		imports []string
	}{
		{"internal/noc", []string{"equinox/internal/geom"}},
		{"internal/gpu", []string{"equinox/internal/hbm", "equinox/internal/workloads"}},
		{"internal/hbm", nil},
		{"internal/geom", nil},
		{"internal/workloads", nil},
	} {
		files, err := filepath.Glob(filepath.Join(layer.dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", layer.dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if (path == "equinox" || strings.HasPrefix(path, "equinox/")) && !slices.Contains(layer.imports, path) {
					t.Errorf("%s imports %s; %s may import only %v", filepath.ToSlash(name), path, layer.dir, layer.imports)
				}
			}
		}
	}
}

// TestExportsHaveProductionCallers keeps test-only helpers out of the
// simulator packages: every exported top-level function or type of the
// packages below, and every exported method of an exported type, must appear
// as an identifier in some non-test .go file of the repo — bench/ included,
// dot-directories and testdata/ not — other than at a declaration. The scan
// is by token, so comments and strings do not count as callers, and any other
// identifier of the same name (a field, another type's method) does: the
// check finds only exports whose name is unused. A helper that only tests
// need belongs in a _test.go file. String and Error are exempt: fmt and the
// error interface call them.
func TestExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var srcs [][]byte
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		srcs = append(srcs, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	checked := map[string]bool{}
	for _, pkg := range []string{"noc", "sim", "gpu", "hbm", "geom", "placement", "telemetry", "flight", "workloads"} {
		checked["internal/"+pkg] = true
	}
	// decls holds the position of every declared function, method and type
	// name, so a declaration never counts as its own caller.
	decls := map[token.Pos]bool{}
	type export struct {
		name, what string // name as the scan sees it; what as the report reads
		pos        token.Position
	}
	var exports []export
	for _, f := range files {
		pos := fset.Position(f.Package)
		audited := checked[filepath.ToSlash(filepath.Dir(pos.Filename))]
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[d.Name.Pos()] = true
				if !audited || !d.Name.IsExported() || d.Name.Name == "String" || d.Name.Name == "Error" {
					continue
				}
				what := d.Name.Name
				if d.Recv != nil {
					recv := receiverType(d.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					what = recv + "." + what
				}
				exports = append(exports, export{d.Name.Name, what, fset.Position(d.Name.Pos())})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						decls[ts.Name.Pos()] = true
						if audited && ts.Name.IsExported() {
							exports = append(exports, export{ts.Name.Name, ts.Name.Name, fset.Position(ts.Name.Pos())})
						}
					}
				}
			}
		}
	}
	if len(exports) == 0 {
		t.Fatal("no exported names found in the audited packages")
	}

	uses := map[string]int{}
	for i, f := range files {
		file := fset.File(f.Package)
		var s scanner.Scanner
		s.Init(file, srcs[i], nil, 0)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT && !decls[pos] {
				uses[lit]++
			}
		}
	}
	for _, e := range exports {
		if uses[e.name] == 0 {
			t.Errorf("%s:%d: %s has no caller outside tests; delete it or move it into a _test.go file", filepath.ToSlash(e.pos.Filename), e.pos.Line, e.what)
		}
	}
}

// receiverType names a method's receiver type: T in T, *T, T[P] and *T[P].
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

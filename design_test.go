package equinox

import (
	"go/parser"
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

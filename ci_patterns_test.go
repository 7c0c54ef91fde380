package beholder

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testSelector finds a quoted -run or -fuzz pattern on a go test command
// line.
var testSelector = regexp.MustCompile(`\s-(?:run|fuzz) '([^']*)'`)

// TestCIRunPatternsNameTests: the CI workflow and the Makefile select
// tests by name, and a pattern that matches nothing passes quietly, so a
// renamed or deleted test would silently shrink a CI step. Every
// |-alternative of every quoted -run or -fuzz pattern on a command line
// must name at least one Test or Fuzz function in the packages that
// command lists.
func TestCIRunPatternsNameTests(t *testing.T) {
	checked := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			ms := testSelector.FindAllStringSubmatchIndex(line, -1)
			if ms == nil {
				continue
			}
			var pkgs []string
			for _, arg := range strings.Fields(line[ms[len(ms)-1][1]:]) {
				if arg == "." || strings.HasPrefix(arg, "./") {
					pkgs = append(pkgs, arg)
				}
			}
			names := testFuncs(t, pkgs)
			for _, m := range ms {
				// Makefile recipes escape $ as $$; a subtest path after /
				// selects within the top-level match.
				pattern := strings.ReplaceAll(line[m[2]:m[3]], "$$", "$")
				top, _, _ := strings.Cut(pattern, "/")
				for _, alt := range strings.Split(top, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: %q: %v", file, i+1, alt, err)
						continue
					}
					if !slices.ContainsFunc(names, re.MatchString) {
						t.Errorf("%s:%d: %q names no Test or Fuzz function in %v", file, i+1, alt, pkgs)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no quoted -run or -fuzz pattern")
	}
}

// testFuncs lists the Test and Fuzz functions declared in the test files
// of the given go test package arguments ("./dir", "./dir/...", ".").
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	add := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		if !recursive {
			files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("package %s: no test files (%v)", pkg, err)
			}
			for _, f := range files {
				add(f)
			}
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
				add(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

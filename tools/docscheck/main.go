// Command docscheck is the CI docs-integrity gate, run from the
// repository root. It fails when any package under internal/ or cmd/
// lacks a package-level doc comment, so the documentation layer cannot
// silently rot as packages are added, and when README.md, DESIGN.md or
// EXPERIMENTS.md cites a test function or a source path that is not
// there: the docs name tests as their evidence, so a renamed test or a
// deleted tool must fail here rather than leave a pointer to nothing.
// The same docs cite `paper -fig X` / `paper -table X` invocations: each
// must name a registered experiment (core.Experiments) or table, and
// every registered experiment must have its row in EXPERIMENTS.md's
// index.
//
//	go run ./tools/docscheck
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"repro/internal/core"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"internal", "cmd"}
	}
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(1)
		}
	}
	var problems []string
	for _, root := range roots {
		fatal(filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			ok, checked, err := packageHasDoc(dir)
			if err != nil {
				return fmt.Errorf("%s: %w", dir, err)
			}
			if checked && !ok {
				problems = append(problems, dir+": no package doc comment")
			}
			return nil
		}))
	}
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	dangling, err := danglingRefs(".", docs)
	fatal(err)
	unregistered, err := experimentRefs(".", docs, "EXPERIMENTS.md", core.Experiments(), core.PaperTables)
	fatal(err)
	if problems = append(append(problems, dangling...), unregistered...); len(problems) > 0 {
		fmt.Fprintln(os.Stderr, "docscheck:")
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "  "+p)
		}
		os.Exit(1)
	}
}

var (
	// testRef is a code span that is exactly a test, benchmark or fuzz
	// function, optionally qualified by its package directory and
	// optionally followed by a subtest; a -run pattern inside a longer
	// span is not one.
	testRef = regexp.MustCompile("`((?:\\w+\\.)?(?:Test|Benchmark|Fuzz)\\w*)(?:/[^`]*)?`")
	// pathRef is a path under one of the four source roots wherever the
	// text names it — code span, command line (./cmd/paper,
	// ./internal/...) or prose — but not an import path
	// (repro/internal/obs).
	pathRef  = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:tools|cmd|internal|examples)/[\w/.-]*)`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// paperRef is a cited paper invocation selecting a figure or table,
	// whatever other flags sit between: `paper -fig 2 -window 0`,
	// `go run ./cmd/paper -remote URL -table 2`.
	paperRef = regexp.MustCompile("\\bpaper\\b[^`\n]*? -(fig|table) ([\\w-]+)")
	// indexRow is one row of the experiment index: `| E10 | ... |`.
	indexRow = regexp.MustCompile(`(?m)^\| E(\d+) \|.*$`)
)

// experimentRefs returns, sorted, one line per `paper -fig X` or
// `paper -table X` the named docs cite that exps / tables do not
// register, and one per experiment in exps whose E-number has no row in
// indexDoc citing its `paper -fig` name.
func experimentRefs(root string, docs []string, indexDoc string, exps []core.Experiment, tables []string) ([]string, error) {
	figs := make([]string, len(exps))
	for i, e := range exps {
		figs[i] = e.Name
	}
	known := map[string][]string{"fig": figs, "table": tables}
	var bad []string
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		for _, m := range paperRef.FindAllSubmatch(text, -1) {
			if kind, name := string(m[1]), string(m[2]); !slices.Contains(known[kind], name) {
				bad = append(bad, fmt.Sprintf("%s: paper -%s %s is not registered (have: %s)",
					doc, kind, name, strings.Join(known[kind], ", ")))
			}
		}
		if doc != indexDoc {
			continue
		}
		rows := map[string]string{}
		for _, m := range indexRow.FindAllSubmatch(text, -1) {
			rows[string(m[1])] = string(m[0])
		}
		for _, e := range exps {
			if !strings.Contains(rows[fmt.Sprint(e.ID)], "`paper -fig "+e.Name+"`") {
				bad = append(bad, fmt.Sprintf("%s: no index row for E%d citing `paper -fig %s`", doc, e.ID, e.Name))
			}
		}
	}
	slices.Sort(bad)
	return slices.Compact(bad), nil
}

// danglingRefs returns, sorted, one line per reference in the named docs
// under root that resolves to nothing: a testRef no _test.go under root
// declares (in the named directory, when qualified) or a pathRef that
// does not exist.
func danglingRefs(root string, docs []string) ([]string, error) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
			funcs[filepath.Base(filepath.Dir(path))+"."+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		for _, m := range testRef.FindAllSubmatch(text, -1) {
			if !funcs[string(m[1])] {
				bad = append(bad, fmt.Sprintf("%s: no test function %s", doc, m[1]))
			}
		}
		for _, m := range pathRef.FindAllSubmatch(text, -1) {
			p := strings.TrimRight(strings.TrimSuffix(string(m[1]), "..."), "/.")
			if _, err := os.Stat(filepath.Join(root, p)); err != nil {
				bad = append(bad, fmt.Sprintf("%s: no path %s", doc, p))
			}
		}
	}
	slices.Sort(bad)
	return slices.Compact(bad), nil
}

// packageHasDoc reports whether the non-test package in dir carries a
// doc comment on at least one of its files. checked is false when the
// directory holds no non-test Go files (nothing to enforce).
func packageHasDoc(dir string) (ok, checked bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, false, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		checked = true
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return false, true, err
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, true, nil
		}
	}
	return false, checked, nil
}

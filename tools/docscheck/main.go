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
// index. DESIGN.md's metric table must name exactly the series the
// process registers with obs, no more and no fewer, so a new series
// cannot go undocumented and a removed one cannot linger.
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
	_ "repro/internal/distrib" // registers the coordinator and worker series
	"repro/internal/obs"
	"repro/internal/prof"
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
	prof.EnableRuntimeMetrics()
	var series strings.Builder
	fatal(obs.Default.WritePrometheus(&series))
	text, err := os.ReadFile("DESIGN.md")
	fatal(err)
	undocumented := metricRefs("DESIGN.md", string(text), registeredSeries(series.String()))
	problems = append(problems, undocumented...)
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
	// pathRef is a path under one of the three source roots wherever the
	// text names it — code span, command line (./cmd/paper,
	// ./internal/...) or prose — but not an import path
	// (repro/internal/obs).
	pathRef  = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:tools|cmd|internal)/[\w/.-]*)`)
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

var (
	// typeLine is an exposition header naming one registered series.
	typeLine = regexp.MustCompile(`(?m)^# TYPE (\S+) `)
	// codeSpan is a code span; braceGroup a {a,b,...} alternation inside
	// one, or a label set ({reason}, {class=...}) ending it.
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	braceGroup = regexp.MustCompile(`\{([^}]*)\}`)
)

// registeredSeries returns the series names, labels dropped, of a
// Prometheus text exposition.
func registeredSeries(exposition string) []string {
	var names []string
	for _, m := range typeLine.FindAllStringSubmatch(exposition, -1) {
		names = append(names, m[1])
	}
	return names
}

// metricRefs returns, sorted, one line per series the metric table of doc
// (the table headed "| Series |") names that registered lacks, and one
// per registered series it does not name. A brace group with commas in a
// name expands (distrib_campaigns_{submitted,done}_total names two
// series); any other brace group is a label set and is dropped.
func metricRefs(doc, text string, registered []string) []string {
	documented := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "| Series |") {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cell := strings.SplitN(line, "|", 3)[1]
		for _, m := range codeSpan.FindAllStringSubmatch(cell, -1) {
			for _, name := range expandBraces(m[1]) {
				documented[name] = true
			}
		}
	}
	var bad []string
	for _, name := range registered {
		if !documented[name] {
			bad = append(bad, fmt.Sprintf("%s: series %s is registered but not in the metric table", doc, name))
		}
		delete(documented, name)
	}
	for name := range documented {
		bad = append(bad, fmt.Sprintf("%s: metric table names %s, which no package registers", doc, name))
	}
	slices.Sort(bad)
	return bad
}

// expandBraces expands a series name's comma brace groups and drops its
// label set.
func expandBraces(name string) []string {
	m := braceGroup.FindStringSubmatchIndex(name)
	if m == nil {
		return []string{name}
	}
	alts := strings.Split(name[m[2]:m[3]], ",")
	if len(alts) == 1 {
		return expandBraces(name[:m[0]] + name[m[1]:])
	}
	var out []string
	for _, a := range alts {
		out = append(out, expandBraces(name[:m[0]]+a+name[m[1]:])...)
	}
	return out
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

package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
)

func writeDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestPackageHasDoc pins the docs-integrity gate's per-directory
// decision: what counts as documented, what counts as checkable at all,
// and that test files can neither satisfy nor trigger the gate.
func TestPackageHasDoc(t *testing.T) {
	cases := []struct {
		name        string
		files       map[string]string
		ok, checked bool
	}{
		{
			name:  "documented package",
			files: map[string]string{"a.go": "// Package a does things.\npackage a\n"},
			ok:    true, checked: true,
		},
		{
			name: "doc on any one file suffices",
			files: map[string]string{
				"a.go": "package a\n",
				"b.go": "// Package a, documented here.\npackage a\n",
			},
			ok: true, checked: true,
		},
		{
			name:  "undocumented package",
			files: map[string]string{"a.go": "package a\n"},
			ok:    false, checked: true,
		},
		{
			name:  "blank comment is not a doc",
			files: map[string]string{"a.go": "//\npackage a\n"},
			ok:    false, checked: true,
		},
		{
			name:  "test files cannot satisfy the gate",
			files: map[string]string{"a_test.go": "// Package a docs in a test file only.\npackage a\n"},
			ok:    false, checked: false,
		},
		{
			name:  "no Go files: nothing to enforce",
			files: map[string]string{"README.md": "prose\n"},
			ok:    false, checked: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ok, checked, err := packageHasDoc(writeDir(t, tc.files))
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.ok || checked != tc.checked {
				t.Errorf("packageHasDoc = (ok %v, checked %v), want (ok %v, checked %v)",
					ok, checked, tc.ok, tc.checked)
			}
		})
	}
}

// TestPackageHasDocErrors: unparsable sources and missing directories
// must surface as errors, not pass silently.
func TestPackageHasDocErrors(t *testing.T) {
	if _, _, err := packageHasDoc(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing directory accepted")
	}
	dir := writeDir(t, map[string]string{"bad.go": "pack age a\n"})
	if _, checked, err := packageHasDoc(dir); err == nil || !checked {
		t.Errorf("unparsable file: err = %v, checked = %v; want parse error on a checked dir", err, checked)
	}
}

// TestDanglingRefs pins what the gate reads as a reference in a doc and
// what each kind resolves against, over one small tree.
func TestDanglingRefs(t *testing.T) {
	tree := map[string]string{
		"internal/sim/sim.go":      "package sim\n\nfunc TestInNonTestFile() {}\n",
		"internal/sim/sim_test.go": "package sim\n\nfunc TestStep(t *testing.T) {}\nfunc BenchmarkStep(b *testing.B) {}\n",
		"internal/other/o_test.go": "package other\n\nfunc FuzzParse(f *testing.F) {}\n",
		"tools/check/main.go":      "package main\n",
	}
	cases := []struct {
		name, doc string
		want      []string
	}{
		{"bare, qualified and subtest names resolve",
			"`TestStep`, `sim.BenchmarkStep`, `other.FuzzParse`, `TestStep/case-1`", nil},
		{"unknown name, wrong package, declared in a non-test file",
			"`TestStepp` `other.TestStep` `TestInNonTestFile`",
			[]string{"DOC.md: no test function TestInNonTestFile", "DOC.md: no test function TestStepp", "DOC.md: no test function other.TestStep"}},
		{"patterns and prose are not references",
			"`go test -run 'TestSte|TestX'`, Testing, BenchmarkNothing unquoted", nil},
		{"paths in spans, commands and prose, as files, directories and patterns",
			"`internal/sim`, `go run ./tools/check -v`, go test ./internal/..., internal/sim/sim.go. `tools/check/`", nil},
		{"missing paths, reported once each",
			"`tools/gone` and `go run ./tools/gone -out x`; `internal/sim/missing.go`",
			[]string{"DOC.md: no path internal/sim/missing.go", "DOC.md: no path tools/gone"}},
		{"import paths and other roots are not checked", "`repro/internal/nope`, `benchmark/nope`, docs/cmd/nope", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree["DOC.md"] = tc.doc
			got, err := danglingRefs(writeDir(t, tree), []string{"DOC.md"})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("danglingRefs = %q, want %q", got, tc.want)
			}
		})
	}
	if _, err := danglingRefs(writeDir(t, tree), []string{"MISSING.md"}); err == nil {
		t.Error("missing doc accepted")
	}
}

// TestExperimentRefs pins the registry half of the gate over a fixture
// registry: which invocations count as citations, that unknown names are
// reported with the known ones, and that every registered experiment
// needs its own index row citing its own -fig name.
func TestExperimentRefs(t *testing.T) {
	exps := []core.Experiment{
		{ID: 3, Name: "1"},
		{ID: 10, Name: "early-stop"},
	}
	tables := []string{"1", "sample"}
	const index = "| # | what | how |\n|---|---|---|\n| E3 | fig | `paper -fig 1` |\n| E10 | ablation | `paper -fig early-stop` |\n"
	cases := []struct {
		name, doc, index string
		want             []string
	}{
		{"spans, command lines and extra flags resolve",
			"`paper -fig 1`, `go run ./cmd/paper -remote URL -fig early-stop -injections 9`\n\tgo run ./cmd/paper -table sample  # E6\n",
			index, nil},
		{"unknown figure and table, reported once each with the known names",
			"`paper -fig nope` then `paper -fig nope -csv`; `paper -table 3`",
			index,
			[]string{
				"DOC.md: paper -fig nope is not registered (have: 1, early-stop)",
				"DOC.md: paper -table 3 is not registered (have: 1, sample)",
			}},
		{"prose about the flags is not a citation",
			"the paper's `-fig` flag; `-fig nope` alone; `faultsim -table 3`", index, nil},
		{"a registered experiment without its index row",
			"", "| E3 | fig | `paper -fig 1` |\n",
			[]string{"INDEX.md: no index row for E10 citing `paper -fig early-stop`"}},
		{"a row under the wrong E-number or citing another name does not count",
			"", "| E3 | fig | `paper -fig early-stop` |\n| E11 | ablation | `paper -fig early-stop` |\n",
			[]string{
				"INDEX.md: no index row for E10 citing `paper -fig early-stop`",
				"INDEX.md: no index row for E3 citing `paper -fig 1`",
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeDir(t, map[string]string{"DOC.md": tc.doc, "INDEX.md": tc.index})
			got, err := experimentRefs(dir, []string{"DOC.md", "INDEX.md"}, "INDEX.md", exps, tables)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("experimentRefs = %q, want %q", got, tc.want)
			}
		})
	}
	if _, err := experimentRefs(t.TempDir(), []string{"MISSING.md"}, "MISSING.md", exps, tables); err == nil {
		t.Error("missing doc accepted")
	}
}

// TestRepositoryDocsCiteRegisteredExperiments runs the registry half of
// the gate on the real docs and the real registry.
func TestRepositoryDocsCiteRegisteredExperiments(t *testing.T) {
	bad, err := experimentRefs("../..", []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"},
		"EXPERIMENTS.md", core.Experiments(), core.PaperTables)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestMetricRefs pins the metric-table check: brace alternations expand,
// label sets drop, rows outside the table do not count, and a series is
// reported on whichever side it is missing from.
func TestMetricRefs(t *testing.T) {
	if got := expandBraces("d_{a,b}_x_{c,e}_total{reason}"); !slices.Equal(got, []string{"d_a_x_c_total", "d_a_x_e_total", "d_b_x_c_total", "d_b_x_e_total"}) {
		t.Errorf("expandBraces: %v", got)
	}
	doc := "`stray_total` before the table\n\n" +
		"| Series | Tier | Meaning |\n|---|---|---|\n" +
		"| `a_total{class=...}`, `b_{x,y}_total` | engine | `not_a_series` in the meaning |\n" +
		"| `gone_total` | engine | |\n\n| `after_total` | x | |\n"
	got := metricRefs("D.md", doc, []string{"a_total", "b_x_total", "b_y_total", "new_total"})
	want := []string{
		"D.md: metric table names gone_total, which no package registers",
		"D.md: series new_total is registered but not in the metric table",
	}
	if !slices.Equal(got, want) {
		t.Errorf("metricRefs:\ngot  %q\nwant %q", got, want)
	}
	if got := registeredSeries("# HELP a_total h\n# TYPE a_total counter\na_total{class=\"x\"} 1\n"); !slices.Equal(got, []string{"a_total"}) {
		t.Errorf("registeredSeries: %v", got)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// BENCHMARK.json cannot drift from the code: names, reasons, units,
// directions, bounds, paths and run length equal what the binary uses.
func TestDeclarationMatchesCode(t *testing.T) {
	d := readDeclared(t)
	if !reflect.DeepEqual(d.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", d.Paths)
	}
	if !reflect.DeepEqual(d.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v", d.Command)
	}
	if d.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code measures %d", d.RunSeconds, runSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(d.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the naming limits", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if got := d.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d declared as %+v, code has %q: %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: reason is not one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, decl []declaredMetric, defs []metricDef, bounded bool) {
		t.Helper()
		if len(decl) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in code", kind, len(decl), len(defs))
		}
		for i, def := range defs {
			unique(def.Name)
			got := decl[i]
			if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
				t.Errorf("%s %d declared as %+v, code has %+v", kind, i, got, def)
			}
			if !unitRE.MatchString(def.Unit) {
				t.Errorf("%s: unit %q outside the limits", def.Name, def.Unit)
			}
			if def.Better != "lower" && def.Better != "higher" {
				t.Errorf("%s: direction %q", def.Name, def.Better)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != def.Bound || def.Bound <= 0 || def.Bound > 0.25):
				t.Errorf("%s: bound declared %v, code has %v", def.Name, got.Bound, def.Bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s: a layer metric has no bound", def.Name)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd, true)
	same("per_layer", d.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d layer metrics exceed the limits", len(endToEnd), len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("set-up time must be setup_s in s, lower: %+v", endToEnd[0])
	}
}

// smoke is a run cut to the bone: one set-up, one pass, a fiftieth of the
// plan. It checks what is emitted, not how fast.
func smoke(t *testing.T) (runConfig, *expectations) {
	t.Helper()
	e, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{scale: 0.02, workers: 2, seed: 1, setupReps: 1, minPasses: 1}, e
}

// lastLine parses the result line the way the driver does.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	if len(keys) != 4 || m["correct"] == nil || m["attempted"] == nil || m["failed"] == nil || m["metrics"] == nil {
		t.Fatalf("result line keys %v", keys)
	}
	return m
}

func checkLine(t *testing.T, out string, defs []metricDef, nonZero bool) {
	t.Helper()
	m := lastLine(t, out)
	if m["correct"] != true || m["failed"].(float64) != 0 || m["attempted"].(float64) < 1 {
		t.Errorf("correct %v attempted %v failed %v\n%s", m["correct"], m["attempted"], m["failed"], out)
	}
	metrics := m["metrics"].(map[string]any)
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := metrics[d.Name].(map[string]any)
		if !ok {
			t.Errorf("%s not emitted", d.Name)
			continue
		}
		if v["unit"] != d.Unit {
			t.Errorf("%s emitted in %v, declared in %s", d.Name, v["unit"], d.Unit)
		}
		if x, _ := v["value"].(float64); nonZero && !(x > 0) {
			t.Errorf("%s = %v, an end-to-end metric is never 0", d.Name, v["value"])
		}
	}
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	rc, e := smoke(t)
	for _, w := range workloads {
		var out bytes.Buffer
		if _, err := runWorkload(w, rc, false, e, &out); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkLine(t, out.String(), endToEnd, true)
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	rc, e := smoke(t)
	rc.outDir = t.TempDir()
	var out bytes.Buffer
	if _, err := runWorkload(workloads[0], rc, true, e, &out); err != nil {
		t.Fatal(err)
	}
	checkLine(t, out.String(), perLayer, false)
	if _, err := os.Stat(rc.outDir + "/spans-" + workloads[0].Name + ".json"); err != nil {
		t.Error(err)
	}
}

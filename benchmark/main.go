// Command benchmark is the repository's benchmark: four named workloads,
// five end-to-end metrics with fixed regression bounds, per-layer metrics
// taken from outside by timing calls into each layer's exported functions,
// and a span-traced run that reconciles a campaign's wall time to named
// phases. BENCHMARK.json at the repository root declares it; README.md in
// this directory explains how to read it.
//
//	bash benchmark/run.sh --workload ma_windowed --seed 1 --seconds 10 --trace 0
//	go run ./benchmark             # one full set, every workload, both runs
//	go run ./benchmark -check      # two sets, compared against the bounds
//
// The last line of standard output of a single-workload run is one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
)

// resultLine is the contract with the driver.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload and end with the result line (default: a full set)")
		seed    = fs.Int64("seed", 1, "campaign seed: the fault plans are made from it")
		seconds = fs.Float64("seconds", runSeconds, "timed passes repeat until this much is measured")
		traced  = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		scale   = fs.Float64("scale", defaultScale, "injections per campaign, as a share of the sizes in README.md")
		workers = fs.Int("workers", 2, "replay workers, capped at the number of CPUs")
		check   = fs.Bool("check", false, "run two sets and compare them against the bounds")
		pinNew  = fs.Bool("write-expected", false, "rewrite benchmark/expected.json from seeds 1 and 2")
		outDir  = fs.String("out", filepath.Join("benchmark", "out"), "directory for spans and results")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	*workers = max(1, min(*workers, runtime.NumCPU()))
	runtime.GOMAXPROCS(*workers)
	rc := runConfig{
		scale: *scale, workers: *workers, seed: *seed, seconds: *seconds,
		setupReps: 5, minPasses: 3, warmup: true, outDir: *outDir,
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	e, err := loadExpectations()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return fail(err)
	}

	ok := true
	switch {
	case *pinNew:
		err = writeExpected(rc)
	case *check:
		ok, err = checkSets(rc, e, stdout)
	case *name == "":
		ok, err = fullSet(rc, e, stdout)
	default:
		var w workload
		if w, err = workloadByName(*name); err == nil {
			var line resultLine
			line, err = runWorkload(w, rc, *traced != 0, e, stdout)
			ok = line.Correct
		}
	}
	if err != nil {
		return fail(err)
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload is a single-workload run as the driver sees it: the
// metrics in readable form, then the result line last.
func runWorkload(w workload, rc runConfig, traced bool, e *expectations, stdout io.Writer) (resultLine, error) {
	defs, runFn := endToEnd, runUntraced
	if traced {
		defs, runFn = perLayer, runTraced
	}
	out, err := runFn(w, rc, e)
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	printMetrics(stdout, w.Name, defs, out)
	line := resultLine{
		Correct: out.failed == 0 && len(out.problems) == 0, Attempted: out.attempted,
		Failed: out.failed, Metrics: emit(defs, out.metrics),
	}
	b, err := json.Marshal(line)
	if err != nil {
		return resultLine{}, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return line, err
}

// printMetrics prints every metric by name with its unit, the spread of
// its repeats where it has any, and whatever the checks found.
func printMetrics(w io.Writer, workload string, defs []metricDef, out *outcome) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-40s %14.6g %-7s", workload, d.Name, out.metrics[d.Name], d.Unit)
		if xs := out.spread[d.Name]; len(xs) > 1 {
			fmt.Fprintf(w, " min %.6g max %.6g n=%d", slices.Min(xs), slices.Max(xs), len(xs))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s faults attempted %d failed %d\n", workload, out.attempted, out.failed)
	for _, p := range out.problems {
		fmt.Fprintf(w, "%-14s PROBLEM %s\n", workload, p)
	}
}

// stat is one metric of a committed result set.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// fullSet runs every workload untraced and traced, prints every metric
// and leaves the set in <out>/results.json.
func fullSet(rc runConfig, e *expectations, stdout io.Writer) (bool, error) {
	type workloadStats struct {
		EndToEnd map[string]stat `json:"end_to_end"`
		PerLayer map[string]stat `json:"per_layer"`
	}
	doc := struct {
		Go        string                   `json:"go"`
		NumCPU    int                      `json:"nproc"`
		Workers   int                      `json:"workers"`
		Scale     float64                  `json:"scale"`
		Seed      int64                    `json:"seed"`
		Workloads map[string]workloadStats `json:"workloads"`
	}{runtime.Version(), runtime.NumCPU(), rc.workers, rc.scale, rc.seed, make(map[string]workloadStats)}

	stats := func(defs []metricDef, out *outcome) map[string]stat {
		m := make(map[string]stat, len(defs))
		for _, d := range defs {
			xs := out.spread[d.Name]
			if len(xs) == 0 {
				xs = []float64{out.metrics[d.Name]}
			}
			m[d.Name] = stat{Median: out.metrics[d.Name], Min: slices.Min(xs), Max: slices.Max(xs), N: len(xs), Unit: d.Unit}
		}
		return m
	}
	ok := true
	for _, w := range workloads {
		plain, err := runUntraced(w, rc, e)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.Name, err)
		}
		printMetrics(stdout, w.Name, endToEnd, plain)
		layers, err := runTraced(w, rc, e)
		if err != nil {
			return false, fmt.Errorf("%s traced: %w", w.Name, err)
		}
		printMetrics(stdout, w.Name, perLayer, layers)
		ok = ok && plain.failed+layers.failed == 0 && len(plain.problems)+len(layers.problems) == 0
		doc.Workloads[w.Name] = workloadStats{stats(endToEnd, plain), stats(perLayer, layers)}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(filepath.Join(rc.outDir, "results.json"), append(b, '\n'), 0o644)
}

// checkSets runs two sets of untraced runs back to back and holds the
// second against the first: every end-to-end metric may be worse by at
// most its bound, and both sets must classify every fault as pinned.
func checkSets(rc runConfig, e *expectations, stdout io.Writer) (bool, error) {
	var sets [2]map[string]*outcome
	for i := range sets {
		sets[i] = make(map[string]*outcome)
		for _, w := range workloads {
			out, err := runUntraced(w, rc, e)
			if err != nil {
				return false, fmt.Errorf("set %d %s: %w", i+1, w.Name, err)
			}
			sets[i][w.Name] = out
		}
	}
	ok := true
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		for _, d := range endToEnd {
			va, vb := a.metrics[d.Name], b.metrics[d.Name]
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(stdout, "%-14s %-22s %12.6g -> %12.6g %-5s worse by %+7.2f%% bound %5.2f%% %s\n",
				w.Name, d.Name, va, vb, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
		for i, out := range []*outcome{a, b} {
			if out.failed > 0 || len(out.problems) > 0 {
				ok = false
				fmt.Fprintf(stdout, "%-14s set %d: %d faults failed %v\n", w.Name, i+1, out.failed, out.problems)
			}
		}
	}
	return ok, nil
}

// writeExpected pins the first three passes of seeds 1 and 2 (2 is the
// held-out seed: nothing in the repository was tuned on it) at the
// default scale.
func writeExpected(rc runConfig) error {
	e := expectations{
		Scale:        rc.scale,
		Fingerprints: make(map[string]string),
		Seeds:        make(map[string]map[string]map[string]pin),
	}
	for _, seed := range []int64{planSeed(1, 0), planSeed(1, 1), planSeed(1, 2), planSeed(2, 0), planSeed(2, 1), planSeed(2, 2)} {
		byWorkload := make(map[string]map[string]pin)
		for _, w := range workloads {
			inj := w.injections(rc.scale)
			if !w.Fleet {
				_, fps, err := w.setupOnce(seed, inj, rc.workers)
				if err != nil {
					return err
				}
				for g, fp := range fps {
					e.Fingerprints[g] = fmt.Sprintf("%016x", fp)
				}
			}
			ps, err := w.timedPass(seed, inj, rc.workers, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			pins := make(map[string]pin, len(ps.results))
			for k, r := range ps.results {
				pins[k] = pinOf(r)
			}
			byWorkload[w.Name] = pins
		}
		e.Seeds[strconv.FormatInt(seed, 10)] = byWorkload
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "expected.json"), append(b, '\n'), 0o644)
}

package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from this build's output")

// slowFigs are skipped under -short: the 80-campaign E13 matrix and the
// run-to-end E9 matrix are most of the suite's wall time.
var slowFigs = map[string]bool{"protection": true, "ablation-models": true}

// wallMasks blank the wall-time cells, the only nondeterminism in
// paper's output: TABLE II's s/run and ratio columns, E11's wall
// columns (wall time is that table's finding), and the sweep summary's
// wall. Everything else — every estimate, interval, count and cycle
// total — is compared byte for byte; a campaign result's JSON carries
// no wall time (campaign.Account).
var wallMasks = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`\d+\.\d{3} s/run +\d+\.\d{3} s/run +\d+\.\d +`), "-.--- s/run  -.--- s/run  -.-  "},
	{regexp.MustCompile(`(?m)^average +\d+\.\d +$`), "average  -.-"},
	{regexp.MustCompile(`\b\d+\.\d\ds( |$)`), "-.--s$1"},
	{regexp.MustCompile(`(?m)^(sweep: .*, wall )\d+\.\ds$`), "${1}-.-s"},
	{regexp.MustCompile(`(?m)^(\s*"(?:FullWall|DeadWall|ClassesWall)": )[^,\n]+`), "${1}0"},
}

// maskWall applies wallMasks, and in E11's CSV (the one CSV with wall
// columns) blanks the cells under the "wall ..." headers.
func maskWall(out string) string {
	for _, m := range wallMasks {
		out = m.re.ReplaceAllString(out, m.repl)
	}
	lines := strings.Split(out, "\n")
	headers := strings.Split(lines[0], ",")
	for col, h := range headers {
		if !strings.HasPrefix(h, "wall ") {
			continue
		}
		for i := 1; i < len(lines); i++ {
			if cells := strings.Split(lines[i], ","); len(cells) == len(headers) {
				cells[col] = "-"
				lines[i] = strings.Join(cells, ",")
			}
		}
	}
	return strings.Join(lines, "\n")
}

// startFleet serves an in-process coordinator with two workers and
// returns its base URL; the fleet stops when t's subtests are done.
func startFleet(t *testing.T) string {
	t.Helper()
	coord := distrib.NewCoordinator(distrib.CoordinatorOptions{
		LeaseTTL: time.Second, ShardSize: 16, Logf: t.Logf,
	})
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		w := distrib.NewWorker(distrib.WorkerOptions{
			Coordinator: srv.URL, ID: id, Workers: 2, Poll: 10 * time.Millisecond,
			Logf: t.Logf,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		srv.Close()
		if err := coord.Close(); err != nil {
			t.Errorf("coordinator close: %v", err)
		}
	})
	return srv.URL
}

// TestGoldenOutputs regenerates every -fig, -table and -all selection
// at a fixed small sample, renders it in table, CSV and JSON form and
// compares each against testdata/: a refactor of the experiment, report
// or cmd layers must not move a byte outside the wall-time cells. The
// JSON form is regenerated on one, two and four workers, on the scalar
// engine and on a fleet (-remote: an in-process coordinator and two
// workers), and each must match the selection's one golden: what a
// campaign found does not depend on how or where it was executed.
func TestGoldenOutputs(t *testing.T) {
	selections := [][]string{{"-all"}, {"-table", "1"}, {"-table", "2"}, {"-table", "sample"}}
	// Every registered experiment: a new registry entry needs goldens.
	for _, e := range core.Experiments() {
		selections = append(selections, []string{"-fig", e.Name})
	}
	const pinned = "-workers 2" // the execution the table and CSV forms run on
	forms := []struct {
		flag, ext, exec string
		format          report.Format
	}{
		{"", "txt", pinned, report.FormatTable},
		{"-csv", "csv", pinned, report.FormatCSV},
		{"-json", "json", pinned, report.FormatJSON},
		{"-json", "json", "-workers 1", report.FormatJSON},
		{"-json", "json", "-workers 4", report.FormatJSON},
		{"-json", "json", "-lanes 1", report.FormatJSON},
		{"-json", "json", "-remote", report.FormatJSON},
	}
	fleet := startFleet(t)
	for _, args := range selections {
		// One run per selection and execution: every form renders it.
		regenerate := map[string]func() (*core.AllResults, error){}
		for _, f := range forms {
			a := append([]string{"-injections", "6", "-benches", "caes", "-seed", "1"}, strings.Fields(f.exec)...)
			if f.exec == "-remote" {
				a = append(a, fleet)
			}
			a = append(a, args...)
			if f.flag != "" {
				a = append(a, f.flag)
			}
			sel, stopProcess, err := parse(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			stopProcess()
			if sel.format != f.format {
				t.Errorf("paper %s parsed as format %v, want %v", strings.Join(a, " "), sel.format, f.format)
			}
			if regenerate[f.exec] == nil {
				regenerate[f.exec] = sync.OnceValues(sel.regenerate)
			}
			name := strings.Join(args, "") + f.flag
			if f.exec != pinned {
				name += strings.ReplaceAll(f.exec, " ", "")
			}
			run := regenerate[f.exec]
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				if testing.Short() && args[0] == "-fig" && slowFigs[args[1]] {
					t.Skip("slow matrix in -short mode")
				}
				res, err := run()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := sel.render(&buf, res); err != nil {
					t.Fatal(err)
				}
				got := maskWall(buf.String())
				// table-N.txt, fig-NAME.EXT, all.EXT: tables ignore the
				// format flags, so all their forms share one golden.
				ext := f.ext
				if args[0] == "-table" {
					ext = "txt"
				}
				path := filepath.Join("testdata", strings.TrimPrefix(strings.Join(args, "-"), "-")+"."+ext)
				if *update {
					if f.exec != pinned {
						return // one writer per golden
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("paper %s %s %s: output differs from %s (rerun with -update only if the change is intended)\n%s",
						f.exec, strings.Join(args, " "), f.flag, path, firstDiff(got, string(want)))
				}
			})
		}
	}
}

// firstDiff names the first differing line of two outputs.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}

// TestBadSelectionsAreNamed: an unknown -fig or -table value is an error
// that names the value and the registered ones (not a usage dump and
// "nothing selected"), checked before anything is simulated or printed;
// -csv with -json is rejected instead of -json winning silently, and
// -checkpoint with -remote instead of being dropped (a fleet's
// checkpoints live on the coordinator).
func TestBadSelectionsAreNamed(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "nope"}, `unknown figure "nope" (have: 1, 2, 3, ablation-window, ablation-latches, ablation-models, early-stop, pruning, avf, protection)`},
		{[]string{"-table", "3"}, `unknown table "3" (have: 1, 2, sample)`},
		{[]string{"-table", "1", "-fig", "nope"}, `unknown figure "nope"`},
		{[]string{"-fig", "1", "-csv", "-json"}, "-csv and -json are mutually exclusive"},
		{[]string{"-fig", "1", "-remote", "http://127.0.0.1:1", "-checkpoint", "ck"}, "-checkpoint is local only: with -remote, checkpoints live on the coordinator"},
	} {
		var buf bytes.Buffer
		err := run(tc.args, &buf, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("paper %s: error = %v, want it to contain %q", strings.Join(tc.args, " "), err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("paper %s: wrote %q before failing", strings.Join(tc.args, " "), buf.String())
		}
	}
}

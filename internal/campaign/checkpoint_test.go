package campaign_test

// Checkpoint compatibility across the move to one pool: shard file
// naming is not format (the loader globs shard-*.jsonl and routes by the
// key inside each record), and an interrupted sweep resumes to the
// uninterrupted result whichever engine was running.

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// TestSweepResumesLegacyShardLayout rewrites a sweep's checkpoints into
// the layout sweeps wrote before the pool (one outcome shard per pool
// worker, stop records in their own shard-stop.jsonl) and resumes from
// them: every replay is restored, none re-executes, results are equal.
func TestSweepResumesLegacyShardLayout(t *testing.T) {
	dir := t.TempDir()
	fac := factoryFor(t, "qsort", core.ModelMicroarch)
	matrix := []campaign.SweepCampaign{
		{Key: "fig/rf", Group: "g", Factory: fac, Config: campaign.Config{
			Injections: 30, Seed: 4, Target: fault.TargetRF, Window: 1_000,
		}},
		{Key: "fig/l1d", Group: "g", Factory: fac, Config: campaign.Config{
			Injections: 120, Seed: 6, Target: fault.TargetL1D, Window: 1_000,
			TargetError: 0.2, MinRuns: 10, Confidence: 0.95,
		}},
	}
	opt := campaign.SweepOptions{Workers: 2, CheckpointDir: dir}
	first := mustSweep(t, matrix, opt)
	if first.Results["fig/l1d"].RunsSaved == 0 {
		t.Fatal("sequential stop never fired; no stop record to carry over")
	}

	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards written (%v)", err)
	}
	var outcomes, stops []string
	for _, name := range shards {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if strings.Contains(sc.Text(), `"kind":"stop"`) {
				stops = append(stops, sc.Text())
			} else {
				outcomes = append(outcomes, sc.Text())
			}
		}
		f.Close()
		if err := os.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if len(stops) != 1 {
		t.Fatalf("%d stop records, want 1", len(stops))
	}
	for name, lines := range map[string][]string{"shard-000.jsonl": outcomes, "shard-stop.jsonl": stops} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	second := mustSweep(t, matrix, opt)
	if second.Resumed != len(outcomes) {
		t.Errorf("resumed %d replays, want all %d", second.Resumed, len(outcomes))
	}
	for key, want := range first.Results {
		got := second.Results[key]
		if got.Elapsed != 0 || got.AvgSecPerRun != 0 {
			t.Errorf("%s: resumed campaign executed replays (%v busy)", key, got.Elapsed)
		}
		normalizeResult(want)
		normalizeResult(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: result resumed from the legacy layout differs:\n got %+v\nwant %+v", key, got, want)
		}
	}
}

// TestSweepResumesCommittedShard resumes testdata/shard-format.jsonl, a
// shard written once by the checkpoint code and committed, so a record
// key renamed or retyped on both the write and the read side fails here
// (TestSweepResumesLegacyShardLayout reads shards the code under test
// has just written, and would pass). Its records, against microarch
// qsort: every outcome of a plain campaign, the replayed representatives
// of a PruneClasses campaign (some carrying csize), every outcome of a
// parity-protected campaign, and a stop record pinning terr, minRuns,
// conf and avfPrior. That record caps its campaign at 8 injections,
// where the estimator alone would run to 58, and the shard holds just
// that prefix: only an honoured stop record yields 8 outcomes. The
// records pin qsort's golden fingerprint; a simulator change that moves
// it strands them, and the shard must then be re-recorded.
func TestSweepResumesCommittedShard(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "shard-format.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-format.jsonl"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	fac := factoryFor(t, "qsort", core.ModelMicroarch)
	const stopAt = 8
	stopCfg := campaign.Config{
		Injections: 60, Seed: 4, Target: fault.TargetRF, Window: 500,
		TargetError: 0.06, MinRuns: 10, Confidence: 0.9, AVFPrior: true,
	}
	matrix := []campaign.SweepCampaign{
		{Key: "plain", Group: "qsort", Factory: fac, Config: campaign.Config{
			Injections: 4, Seed: 1, Target: fault.TargetRF, Window: 500}},
		{Key: "classes", Group: "qsort", Factory: fac, Config: campaign.Config{
			Injections: 60, Seed: 11, Target: fault.TargetL1D, Window: 3000, Prune: campaign.PruneClasses}},
		{Key: "protected", Group: "qsort", Factory: fac, Config: campaign.Config{
			Injections: 6, Seed: 3, Target: fault.TargetRF, Window: 500, Protect: "rf=parity"}},
		{Key: "stop", Group: "qsort", Factory: fac, Config: stopCfg},
	}
	got := mustSweep(t, matrix, campaign.SweepOptions{Workers: 2, CheckpointDir: dir})
	records := strings.Count(string(src), "\n") - strings.Count(string(src), `"kind":"stop"`)
	if got.Resumed != records {
		t.Errorf("resumed %d replays, want the shard's %d outcome records", got.Resumed, records)
	}
	want := mustSweep(t, matrix, campaign.SweepOptions{Workers: 2})
	for key, g := range got.Results {
		if g.Elapsed != 0 {
			t.Errorf("%s: replays executed (%v busy); every outcome should come from the shard", key, g.Elapsed)
		}
		w := want.Results[key]
		if key == "stop" {
			if len(g.Outcomes) != stopAt || g.RunsSaved != stopCfg.Injections-stopAt {
				t.Errorf("stop: %d outcomes, %d saved; the stop record caps at %d", len(g.Outcomes), g.RunsSaved, stopAt)
			}
			if len(w.Outcomes) <= stopAt {
				t.Fatalf("stop: the estimator alone stops at %d, so the record's cap is vacuous", len(w.Outcomes))
			}
			if !reflect.DeepEqual(g.Outcomes, w.Outcomes[:stopAt]) {
				t.Errorf("stop: resumed outcomes differ from a fresh run's first %d", stopAt)
			}
			continue
		}
		normalizeResult(w)
		normalizeResult(g)
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: result resumed from the committed shard differs:\n got %+v\nwant %+v", key, g, w)
		}
	}
}

// TestResumeSkipsOutOfRangeClasses: a checkpoint record whose class is
// missing (decoding to 0) or unknown is damaged, not an outcome — resume
// replays its index instead of merging it as unsafe.
func TestResumeSkipsOutOfRangeClasses(t *testing.T) {
	dir := t.TempDir()
	matrix := []campaign.SweepCampaign{{Key: "k", Group: "g", Factory: factoryFor(t, "caes", core.ModelMicroarch),
		Config: campaign.Config{Injections: 40, Seed: 1, Target: fault.TargetRF, Window: 500}}}
	opt := campaign.SweepOptions{Workers: 2, CheckpointDir: dir}
	first := mustSweep(t, matrix, opt)
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil || len(shards) != 1 {
		t.Fatalf("shards %v (%v), want one", shards, err)
	}
	b, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	class := regexp.MustCompile(`"class":\d+,`)
	lines := strings.Split(string(b), "\n")
	lines[0] = class.ReplaceAllString(lines[0], "")
	lines[1] = class.ReplaceAllString(lines[1], `"class":99,`)
	if err := os.WriteFile(shards[0], []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	second := mustSweep(t, matrix, opt)
	if want := matrix[0].Config.Injections - 2; second.Resumed != want {
		t.Errorf("resumed %d replays, want %d", second.Resumed, want)
	}
	want, got := first.Results["k"], second.Results["k"]
	normalizeResult(want)
	normalizeResult(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resume merged a damaged record: counts %v, unsafe %d; want %v, %d",
			got.Counts, got.Unsafeness.Hits, want.Counts, want.Unsafeness.Hits)
	}
}

// TestInterruptedSweepResumesEveryEngine stops a three-campaign sweep
// part-way and asserts a second sweep over the same checkpoint directory
// reproduces the uninterrupted result, for each replay engine. The
// scalar engine (Lanes 1) serves one campaign at a time: the first is
// complete, the second cut just after its first chunk, the third never
// started. The lockstep campaigns — register-file lanes, and RTL latch
// lanes, whose faults peel on their first tick or ride as data-latch
// diffs — share a golden run and so one walk: all three are cut after
// the first pull, 16 replays each.
func TestInterruptedSweepResumesEveryEngine(t *testing.T) {
	engines := []struct {
		name   string
		model  core.Model
		target fault.Target
		lanes  int
		// The interrupt fires on call tripAt of campaign trip's factory:
		// the first that builds an engine (a unit's first campaign also
		// built the golden run).
		trip   int
		tripAt int32
	}{
		{"scalar", core.ModelMicroarch, fault.TargetRF, 1, 1, 1},
		{"batch", core.ModelRTL, fault.TargetRF, 2, 0, 2},
		{"latches", core.ModelRTL, fault.TargetLatches, 2, 0, 2},
	}
	for _, e := range engines {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			fac := factoryFor(t, "sha", e.model)
			stop := make(chan struct{})
			var calls atomic.Int32
			matrix := func(tripping campaign.Factory) []campaign.SweepCampaign {
				var m []campaign.SweepCampaign
				for i, key := range []string{"a", "b", "c"} {
					f := fac
					if i == e.trip {
						f = tripping
					}
					m = append(m, campaign.SweepCampaign{Key: key, Group: "g", Factory: f, Config: campaign.Config{
						Injections: 20, Seed: int64(11 + i), Target: e.target, Window: 400,
						Lanes: e.lanes,
					}})
				}
				return m
			}
			want := mustSweep(t, matrix(fac), campaign.SweepOptions{Workers: 2})

			// One pool goroutine, and the interrupt fires as it builds the
			// tripping campaign's engine, which it does for the pull it has
			// just made: that pull runs, the rest is left unissued.
			dir := t.TempDir()
			interrupting := func() (campaign.Simulator, error) {
				if calls.Add(1) == e.tripAt {
					close(stop)
				}
				return fac()
			}
			_, err := campaign.Sweep(matrix(interrupting), campaign.SweepOptions{Workers: 1, CheckpointDir: dir, Stop: stop})
			if !errors.Is(err, campaign.ErrInterrupted) {
				t.Fatalf("interrupted sweep returned %v, want ErrInterrupted", err)
			}

			got := mustSweep(t, matrix(fac), campaign.SweepOptions{Workers: 2, CheckpointDir: dir})
			if got.Resumed < 20 || got.Resumed >= 60 {
				t.Errorf("resumed %d replays; want more than one campaign's 20 and fewer than all 60", got.Resumed)
			}
			for key, w := range want.Results {
				g := got.Results[key]
				normalizeEngine(w)
				normalizeEngine(g)
				if !reflect.DeepEqual(w, g) {
					t.Errorf("%s: resumed result differs from the uninterrupted sweep:\n got %+v\nwant %+v", key, g, w)
				}
			}
		})
	}
}

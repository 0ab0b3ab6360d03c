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
// scalar engine (Lanes 1) and the walk's fork path (the cursor row: RTL
// latches at default lanes, every replay forked off the walk) serve one
// campaign each: the first is complete, the second cut inside or just
// after its first chunk, the third never started. The lockstep
// campaigns share a golden run and so one walk: all three are cut after
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
		{"cursor", core.ModelRTL, fault.TargetLatches, 0, 1, 1},
		{"batch", core.ModelRTL, fault.TargetRF, 2, 0, 2},
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

package campaign_test

// Checkpoint compatibility across the move to one pool: shard file
// naming is not format (the loader globs shard-*.jsonl and routes by the
// key inside each record), and an interrupted sweep resumes to the
// uninterrupted result whichever engine was running.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
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
// The writer emits no stop record, so shard-stop.jsonl holds the
// committed fixture's old one, which the loader must skip; the
// sequentially stopped campaign re-derives its stopping index from the
// restored outcomes alone.
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
		t.Fatal("sequential stop never fired; resume has no stopping index to re-derive")
	}

	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards written (%v)", err)
	}
	var outcomes []string
	for _, name := range shards {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if strings.Contains(sc.Text(), `"kind"`) {
				t.Fatalf("%s holds a stop record: %s", name, sc.Text())
			}
			outcomes = append(outcomes, sc.Text())
		}
		f.Close()
		if err := os.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	stops := fixtureLines(t, `"kind":"stop"`)
	if len(stops) != 1 {
		t.Fatalf("committed shard holds %d stop records, want 1", len(stops))
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
		want.Account = campaign.Account{}
		got.Account = campaign.Account{}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: result resumed from the legacy layout differs:\n got %+v\nwant %+v", key, got, want)
		}
	}
}

// fixtureLines returns the non-empty lines of testdata/shard-format.jsonl
// that contain sub.
func fixtureLines(t *testing.T, sub string) []string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "shard-format.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(src), "\n") {
		if line != "" && strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return out
}

// resumeFromLines sweeps matrix over a checkpoint directory holding
// lines as its one shard.
func resumeFromLines(t *testing.T, matrix []campaign.SweepCampaign, lines []string) *campaign.SweepResult {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-format.jsonl"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return mustSweep(t, matrix, campaign.SweepOptions{Workers: 2, CheckpointDir: dir})
}

// committedShardMatrix is the matrix whose records
// testdata/shard-format.jsonl holds, against microarch qsort.
func committedShardMatrix(t *testing.T) []campaign.SweepCampaign {
	t.Helper()
	fac := factoryFor(t, "qsort", core.ModelMicroarch)
	return []campaign.SweepCampaign{
		{Key: "plain", Group: "qsort", Factory: fac, Config: campaign.Config{
			Injections: 4, Seed: 1, Target: fault.TargetRF, Window: 500}},
		{Key: "classes", Group: "qsort", Factory: fac, Config: campaign.Config{
			Injections: 60, Seed: 11, Target: fault.TargetL1D, Window: 3000, Prune: campaign.PruneClasses}},
		{Key: "stop", Group: "qsort", Factory: fac, Config: campaign.Config{
			Injections: 60, Seed: 4, Target: fault.TargetRF, Window: 500,
			TargetError: 0.06, MinRuns: 10, Confidence: 0.9, AVFPrior: true}},
	}
}

// TestSweepResumesCommittedShard resumes testdata/shard-format.jsonl, a
// shard written once by the checkpoint code and committed, so a record
// key renamed or retyped on both the write and the read side fails here
// (TestSweepResumesLegacyShardLayout reads shards the code under test
// has just written, and would pass). Its records, against microarch
// qsort: every outcome of a plain campaign, the replayed representatives
// of a PruneClasses campaign (some carrying the csize key older writers
// emitted), every outcome of a campaign the engine once replayed
// parity-protected (which must never land: TestOldProtectedShardNeverMerges),
// and the first 8 outcomes of a sequentially stopped campaign with the
// stop record older writers emitted, which capped it at 8 where its
// estimator reaches 58. The stop record must load and be ignored: the
// campaign resumes its 8 outcomes, replays only the indices past them,
// and equals a fresh run. The records pin qsort's golden fingerprint; a
// simulator change that moves it strands them, and the shard must then
// be re-recorded.
func TestSweepResumesCommittedShard(t *testing.T) {
	matrix := committedShardMatrix(t)
	got := resumeFromLines(t, matrix, fixtureLines(t, ""))
	stops := len(fixtureLines(t, `"kind":"stop"`))
	if stops != 1 {
		t.Fatalf("committed shard holds %d stop records, want 1", stops)
	}
	records := len(fixtureLines(t, "")) - stops - len(fixtureLines(t, `"protect":"rf=parity"`))
	if got.Resumed != records {
		t.Errorf("resumed %d replays, want the shard's %d outcome records", got.Resumed, records)
	}
	recorded := len(fixtureLines(t, `"campaign":"stop"`)) - stops
	want := mustSweep(t, matrix, campaign.SweepOptions{Workers: 2})
	for key, g := range got.Results {
		w := want.Results[key]
		if key == "stop" {
			if len(w.Outcomes) <= recorded {
				t.Fatalf("stop: the estimator stops at %d, inside the %d recorded outcomes", len(w.Outcomes), recorded)
			}
			// Every index past the recorded prefix up to the stopping
			// index replays, and no recorded one does.
			ran := g.BatchedRuns + g.PeeledRuns
			if ran < len(w.Outcomes)-recorded || ran > len(w.Outcomes)-recorded+w.Config.Injections-len(w.Outcomes) {
				t.Errorf("stop: %d replays executed, want %d past the %d recorded outcomes (plus any overshoot)",
					ran, len(w.Outcomes)-recorded, recorded)
			}
		} else if g.Elapsed != 0 {
			t.Errorf("%s: replays executed (%v busy); every outcome should come from the shard", key, g.Elapsed)
		}
		w.Account = campaign.Account{}
		g.Account = campaign.Account{}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: result resumed from the committed shard differs:\n got %+v\nwant %+v", key, g, w)
		}
	}
}

// TestResumeDerivesClassSizes strips the csize key from the committed
// shard's class representatives: a resumed campaign works out each class
// size from its own pruning pass, not from the record, so its outcomes
// and class-weighted estimate still equal a fresh run's.
func TestResumeDerivesClassSizes(t *testing.T) {
	matrix := committedShardMatrix(t)[1:2] // "classes"
	csize := regexp.MustCompile(`,"csize":\d+`)
	var lines []string
	stripped := 0
	for _, line := range fixtureLines(t, `"campaign":"classes"`) {
		if csize.MatchString(line) {
			stripped++
		}
		lines = append(lines, csize.ReplaceAllString(line, ""))
	}
	if stripped == 0 {
		t.Fatal("committed shard holds no csize key to strip")
	}
	got := resumeFromLines(t, matrix, lines)
	if got.Resumed != len(lines) {
		t.Errorf("resumed %d replays, want all %d", got.Resumed, len(lines))
	}
	want := mustSweep(t, matrix, campaign.SweepOptions{Workers: 2})
	g, w := got.Results["classes"], want.Results["classes"]
	if g.Elapsed != 0 {
		t.Errorf("replays executed (%v busy); every representative should come from the shard", g.Elapsed)
	}
	w.Account = campaign.Account{}
	g.Account = campaign.Account{}
	if !reflect.DeepEqual(w, g) {
		t.Errorf("result resumed without class sizes differs:\n got %+v\nwant %+v", g, w)
	}
}

// TestOldProtectedShardNeverMerges resumes the committed shard's six
// records of an "rf=parity" campaign — written when the engine replayed
// protected campaigns, so they hold post-protection classes — into the
// unprotected campaign with that key and config, the twin a protected
// arm now derives from. The records' protect pin must keep every one
// out. That campaign drew over the 1904 bits of data plus parity
// overhead, its twin draws over the 1792 data bits, so the test first
// moves each record's bit to the twin's: spec agreement alone must not
// admit them (a draw agreeing modulo both spaces does so in the field).
// With the pin stripped the same six records land, which shows the pin
// is what stops them.
func TestOldProtectedShardNeverMerges(t *testing.T) {
	fac := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{Injections: 6, Seed: 3, Target: fault.TargetRF, Window: 500}
	twin := mustRun(t, fac, cfg)
	bit := regexp.MustCompile(`"bit":\d+`)
	var parity []string
	for _, line := range fixtureLines(t, `"protect":"rf=parity"`) {
		var r struct{ Index int }
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		parity = append(parity, bit.ReplaceAllString(line, fmt.Sprintf(`"bit":%d`, twin.Outcomes[r.Index].Spec.Bit)))
	}
	if len(parity) != cfg.Injections {
		t.Fatalf("committed shard holds %d rf=parity records, want %d", len(parity), cfg.Injections)
	}
	matrix := []campaign.SweepCampaign{{Key: "protected", Group: "qsort", Factory: fac, Config: cfg}}
	if n := resumeFromLines(t, matrix, parity).Resumed; n != 0 {
		t.Errorf("%d of %d rf=parity records merged into the unprotected twin", n, len(parity))
	}
	unpinned := make([]string, len(parity))
	for i, line := range parity {
		unpinned[i] = strings.Replace(line, `,"protect":"rf=parity"`, "", 1)
	}
	if n := resumeFromLines(t, matrix, unpinned).Resumed; n != len(parity) {
		t.Fatalf("without the pin %d of %d records landed; the test no longer reaches the pin", n, len(parity))
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
	want.Account = campaign.Account{}
	got.Account = campaign.Account{}
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
// diffs — share a golden run and so one walk and one cycle-sorted
// queue: all three are cut after the first grab, the 48 earliest of
// their 60 replays (three chunks of 16), and the 12 still queued are
// what makes the stop an interrupt.
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
				w.Account = campaign.Account{}
				g.Account = campaign.Account{}
				if !reflect.DeepEqual(w, g) {
					t.Errorf("%s: resumed result differs from the uninterrupted sweep:\n got %+v\nwant %+v", key, g, w)
				}
			}
		})
	}
}

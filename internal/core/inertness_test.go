package core_test

// The observability inertness guarantee, asserted end to end: a
// campaign run with metrics enabled must produce a byte-identical
// result and report to the same campaign run with metrics off. The
// test lives in an external test package because report imports both
// campaign and core.

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lanestore"
	"repro/internal/obs"
	"repro/internal/report"
)

// scrub zeroes the wall-clock fields — the only Result fields that may
// legitimately differ between two runs of the same campaign.
func scrub(r *campaign.Result) {
	r.Elapsed = 0
	r.AvgSecPerRun = 0
	r.GoldenElapsed = 0
}

func TestMetricsAreInert(t *testing.T) {
	cases := []struct {
		name  string
		model core.Model
		cfg   campaign.Config
	}{
		{"microarch-stream", core.ModelMicroarch, campaign.Config{
			Injections: 60, Seed: 7, Target: fault.TargetRF, Window: 400,
			EarlyStop: true,
		}},
		{"rtl-batch-cursor", core.ModelRTL, campaign.Config{
			Injections: 40, Seed: 7, Target: fault.TargetRF, Window: 300,
			Lanes: 8, Sched: campaign.SchedCursor, EarlyStop: true, TargetError: 0.08,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs.Disable()
			off, err := core.RunCampaign("qsort", tc.model, core.CampaignSetup(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}

			obs.Enable()
			defer obs.Disable()
			on, err := core.RunCampaign("qsort", tc.model, core.CampaignSetup(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}

			scrub(off)
			scrub(on)
			if !reflect.DeepEqual(off, on) {
				t.Errorf("Result differs with metrics enabled:\noff: %+v\non:  %+v", off, on)
			}
			repOff := report.Campaign("qsort/"+tc.model.String(), off)
			repOn := report.Campaign("qsort/"+tc.model.String(), on)
			if repOff != repOn {
				t.Errorf("report bytes differ with metrics enabled:\n--- off ---\n%s\n--- on ---\n%s", repOff, repOn)
			}
		})
	}

	// Sanity: the enabled runs above must actually have exercised the
	// instrumentation — the collector's and the lockstep walk's —
	// otherwise inertness is vacuously true.
	s := series(t)
	for _, name := range []string{"campaign_replays_total", "campaign_batch_walks_total", "campaign_batch_lockstep_cycles_total"} {
		if s[name] == 0 {
			t.Errorf("%s is 0 or missing — the enabled runs recorded nothing there", name)
		}
	}
	if _, ok := s["campaign_batch_deferred_total"]; !ok {
		t.Error("campaign_batch_deferred_total missing from exposition")
	}
	// The microarchitectural campaign's value lanes peel by reason; every
	// label of the fixed set is exposed, and together they saw its peels.
	var peels uint64
	for r := lanestore.PeelReason(0); r < lanestore.NumPeelReasons; r++ {
		name := `campaign_batch_peels_total{reason="` + r.String() + `"}`
		v, ok := s[name]
		if !ok {
			t.Errorf("%s missing from exposition", name)
		}
		peels += v
	}
	if peels == 0 {
		t.Error("campaign_batch_peels_total is 0 for every reason — the value lanes' peels went unrecorded")
	}
}

// series reads the current value of every un-labelled series of the
// registry.
func series(t *testing.T) map[string]uint64 {
	t.Helper()
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseUint(val, 10, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out
}

// TestFusedWalkSeedPins sweeps the register-file and the L1D campaign of
// one qsort golden run on one goroutine and holds the engine's ledger —
// the series an operator reads — to its exact seed-determined values.
// The two campaigns are one unit: one pull, one walk with both trackers
// attached, so together they ride no more than one golden run's cycles
// (5% allowed for what a follow-up walk over deferred specs would
// re-step), where each used to walk the run on its own, group by group.
func TestFusedWalkSeedPins(t *testing.T) {
	type ledger struct{ walks, deferred, lockstep, fastForward, private, batched, peeled uint64 }
	for _, tc := range []struct {
		model core.Model
		want  ledger
	}{
		{core.ModelMicroarch, ledger{walks: 1, lockstep: 27_496, fastForward: 659, private: 23_088, batched: 944, peeled: 80}},
		{core.ModelRTL, ledger{walks: 1, lockstep: 48_697, fastForward: 4_505, private: 57_114, batched: 859, peeled: 165}},
	} {
		var matrix []campaign.SweepCampaign
		for i, target := range []fault.Target{fault.TargetRF, fault.TargetL1D} {
			c, err := core.Standalone("qsort", tc.model, core.CampaignSetup(), campaign.Config{
				Injections: 512, Seed: int64(1 + i), Target: target,
				Obs: campaign.ObsPinout, Window: 500,
			})
			if err != nil {
				t.Fatal(err)
			}
			c.Key, c.Group = target.String(), "qsort"
			matrix = append(matrix, c)
		}
		obs.Default.Reset()
		obs.Enable()
		sr, err := campaign.Sweep(matrix, campaign.SweepOptions{Workers: 1})
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		s := series(t)
		got := ledger{
			walks: s["campaign_batch_walks_total"], deferred: s["campaign_batch_deferred_total"],
			lockstep: s["campaign_batch_lockstep_cycles_total"], fastForward: s["campaign_fastforward_cycles_total"],
			private: s["campaign_batch_private_cycles_total"],
			batched: s["campaign_batched_runs_total"], peeled: s["campaign_batch_peeled_total"],
		}
		if got != tc.want {
			t.Errorf("%v pins moved:\ngot  %+v\nwant %+v", tc.model, got, tc.want)
		}
		golden := sr.Goldens["qsort"].Cycles
		if float64(got.lockstep) > 1.05*float64(golden) {
			t.Errorf("%v: both campaigns rode %d lockstep cycles, the golden run has %d", tc.model, got.lockstep, golden)
		}
		var rode int
		for _, r := range sr.Results {
			rode += r.BatchedRuns + r.PeeledRuns
		}
		if uint64(rode) != got.batched+got.peeled || rode != 1024 {
			t.Errorf("%v: results account for %d lane replays, the series for %d + %d", tc.model, rode, got.batched, got.peeled)
		}
	}
}

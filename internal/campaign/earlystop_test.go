package campaign_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// TestConvergenceExitExact is the soundness contract of the convergence
// exit: enabling EarlyStop alone (no sequential stopping) must change
// NOTHING but cycles — every replay's class is identical to the fixed
// plan's, because a reconverged run retraces golden. It also enforces
// the headline speedup: on a run-to-end campaign the adaptive engine
// must cut total simulated replay cycles by well over 30%. The pinned
// row also holds both arms, and a third that adds sequential stopping
// (margin 0.1 at 90%, at least 30 runs), to their exact seed-determined
// accounting: a change that moves it changed what the adaptive engine
// does, not how fast.
func TestConvergenceExitExact(t *testing.T) {
	for _, tc := range []struct {
		name     string
		model    core.Model
		workload string
		n        int
		pinned   bool
	}{
		{"microarch", core.ModelMicroarch, "caes", 40, false},
		{"rtl", core.ModelRTL, "caes", 15, false},
		{"microarch-pinned", core.ModelMicroarch, "caes", 80, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := campaign.Config{
				Injections: tc.n, Seed: 5, Target: fault.TargetRF,
				Obs: campaign.ObsPinout, Workers: 4,
			}
			fixed := runSmall(t, tc.model, cfg, tc.workload)
			cfg.EarlyStop = true
			adaptive := runSmall(t, tc.model, cfg, tc.workload)

			if len(fixed.Outcomes) != len(adaptive.Outcomes) {
				t.Fatalf("outcome counts differ: %d vs %d", len(fixed.Outcomes), len(adaptive.Outcomes))
			}
			for i := range fixed.Outcomes {
				if fixed.Outcomes[i].Class != adaptive.Outcomes[i].Class {
					t.Errorf("outcome %d class changed: %v -> %v (spec %+v)",
						i, fixed.Outcomes[i].Class, adaptive.Outcomes[i].Class, fixed.Outcomes[i].Spec)
				}
			}
			for c, n := range fixed.Counts {
				if adaptive.Counts[c] != n {
					t.Errorf("class %v count changed: %d -> %d", c, n, adaptive.Counts[c])
				}
			}
			if adaptive.ConvergedRuns == 0 {
				t.Error("no replay converged on a run-to-end campaign")
			}
			saved := 1 - float64(adaptive.CyclesSimulated)/float64(fixed.CyclesSimulated)
			t.Logf("%s: converged %d/%d, cycles %d -> %d (%.0f%% saved)",
				tc.model, adaptive.ConvergedRuns, tc.n,
				fixed.CyclesSimulated, adaptive.CyclesSimulated, saved*100)
			if saved < 0.30 {
				t.Errorf("adaptive engine saved only %.1f%% of replay cycles (want >= 30%%)", saved*100)
			}
			if adaptive.CyclesSaved == 0 {
				t.Error("CyclesSaved not accounted")
			}
			if !tc.pinned {
				return
			}
			cfg.TargetError, cfg.Confidence, cfg.MinRuns = 0.1, 0.9, 30
			seq := runSmall(t, tc.model, cfg, tc.workload)
			const wantMargin = 0.09993373197366234
			got := [5]uint64{fixed.CyclesSimulated, adaptive.CyclesSimulated, seq.CyclesSimulated,
				uint64(seq.ConvergedRuns), uint64(seq.RunsSaved)}
			if want := [5]uint64{1_770_122, 771_024, 377_513, 21, 41}; got != want ||
				math.Abs(seq.AchievedMargin-wantMargin) > 1e-12 {
				t.Errorf("pins moved: (cycles fixed, converging, sequential; sequential runs converged, saved) = %v, want %v; margin %v, want %v",
					got, want, seq.AchievedMargin, wantMargin)
			}
		})
	}
}

// TestConvergenceExitWindowed: the exactness contract holds for windowed
// campaigns and for every fault model, including the persistent ones
// whose faults must be inactive before a convergence exit is legal; and
// it holds for them run to end, where a persistent fault's tail goes on
// past the golden run's last hash point. Each adaptive arm is also
// pinned per outcome — its (Class, EndCycle, Converged) in plan order,
// folded by outcomeDigest — so a replay tail that stops re-asserting a
// still-active persistent fault, or exits where it should not, moves a
// pin even when the two arms move together.
func TestConvergenceExitWindowed(t *testing.T) {
	for _, tc := range []struct {
		prm fault.Params
		pin [2]uint64 // window 2000, run to end
	}{
		{fault.Params{Model: fault.ModelTransient}, [2]uint64{0x9aa0_7086_0c41_9ed9, 0x4611_b5b5_6b74_5270}},
		{fault.Params{Model: fault.ModelBurst, Burst: 3}, [2]uint64{0x4714_35a8_2960_5316, 0xf9b6_13ac_2f79_9796}},
		{fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom}, [2]uint64{0x019e_9c43_0abc_4808, 0x9534_2503_aad7_5a55}},
		{fault.Params{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom, Span: 200}, [2]uint64{0xba25_5c08_5ef2_02cb, 0x3d4d_0742_060e_7015}},
	} {
		prm := tc.prm
		t.Run(prm.Model.String(), func(t *testing.T) {
			t.Parallel()
			for k, window := range []uint64{2_000, 0} {
				cfg := campaign.Config{
					Injections: 20, Seed: 9, Target: fault.TargetRF, Fault: prm,
					Obs: campaign.ObsPinout, Window: window, Workers: 4,
				}
				fixed := runSmall(t, core.ModelMicroarch, cfg, "qsort")
				cfg.EarlyStop = true
				adaptive := runSmall(t, core.ModelMicroarch, cfg, "qsort")
				for i := range fixed.Outcomes {
					if fixed.Outcomes[i].Class != adaptive.Outcomes[i].Class {
						t.Errorf("window %d: outcome %d class changed: %v -> %v",
							window, i, fixed.Outcomes[i].Class, adaptive.Outcomes[i].Class)
					}
				}
				if prm.Model == fault.ModelStuckAt && adaptive.ConvergedRuns != 0 {
					t.Errorf("window %d: %d stuck-at replays converged; permanent faults never deactivate", window, adaptive.ConvergedRuns)
				}
				if got := outcomeDigest(adaptive.Outcomes); got != tc.pin[k] {
					t.Errorf("window %d: adaptive outcomes moved: digest %#x, want %#x", window, got, tc.pin[k])
					for i, oc := range adaptive.Outcomes {
						t.Logf("outcome %d: %v end %d converged %v", i, oc.Class, oc.EndCycle, oc.Converged)
					}
				}
				t.Logf("%v window %d: converged %d/20, cycles %d -> %d", prm.Model, window,
					adaptive.ConvergedRuns, fixed.CyclesSimulated, adaptive.CyclesSimulated)
			}
		})
	}
}

// outcomeDigest folds each outcome's (Class, EndCycle, Converged), in
// order, into one FNV-1a digest.
func outcomeDigest(ocs []campaign.RunOutcome) uint64 {
	h := fnv.New64a()
	for _, oc := range ocs {
		fmt.Fprintf(h, "%d %d %t;", oc.Class, oc.EndCycle, oc.Converged)
	}
	return h.Sum64()
}

// TestSequentialStopping: with a target error margin the dispatcher must
// stop early, deterministically, and the truncated estimate must stay
// within the margin of the full-plan estimate for every class.
func TestSequentialStopping(t *testing.T) {
	full := campaign.Config{
		Injections: 150, Seed: 17, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 2_000, Workers: 4, Confidence: 0.95,
	}
	fixed := runSmall(t, core.ModelMicroarch, full, "qsort")

	seq := full
	seq.EarlyStop = true
	seq.TargetError = 0.12
	a := runSmall(t, core.ModelMicroarch, seq, "qsort")
	b := runSmall(t, core.ModelMicroarch, seq, "qsort")

	if a.RunsSaved == 0 {
		t.Fatalf("sequential stopping never triggered (ran all %d)", len(a.Outcomes))
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("stopping index nondeterministic: %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs across identical seeded runs", i)
		}
	}
	if a.AchievedMargin > seq.TargetError {
		t.Errorf("achieved margin %.4f above target %.4f", a.AchievedMargin, seq.TargetError)
	}
	// A stop saves replays, not only counted runs: a sequentially stopped
	// campaign pulls one lane width at a time, so on one goroutine the
	// replays that ran end at the first pull after the stopping index
	// instead of covering the plan (four goroutines' first pulls cover
	// all 150 here).
	one := seq
	one.Workers = 1
	c := runSmall(t, core.ModelMicroarch, one, "qsort")
	if ran := c.BatchedRuns + c.PeeledRuns; ran >= full.Injections {
		t.Errorf("one goroutine replayed %d of %d planned runs for a stop at %d", ran, full.Injections, len(c.Outcomes))
	}
	if len(c.Outcomes) != len(a.Outcomes) {
		t.Errorf("stopping index %d on one goroutine, %d on four", len(c.Outcomes), len(a.Outcomes))
	}
	n := float64(len(a.Outcomes))
	nf := float64(len(fixed.Outcomes))
	for _, c := range []campaign.Class{
		campaign.ClassMasked, campaign.ClassMismatch, campaign.ClassSDC,
		campaign.ClassCrash, campaign.ClassHang,
	} {
		drift := math.Abs(float64(a.Counts[c])/n - float64(fixed.Counts[c])/nf)
		if drift > seq.TargetError {
			t.Errorf("class %v drifted %.4f, beyond the %.2f margin", c, drift, seq.TargetError)
		}
	}
	t.Logf("stopped after %d/%d runs (margin %.4f), unsafeness %.3f vs full %.3f",
		len(a.Outcomes), full.Injections, a.AchievedMargin, a.Unsafeness.P, fixed.Unsafeness.P)
}

// TestSequentialStoppingConfigValidation: the stopping knobs reject
// nonsense combinations.
func TestSequentialStoppingConfigValidation(t *testing.T) {
	bad := []campaign.Config{
		{Injections: 10, Target: fault.TargetRF, TargetError: 1.2},
		{Injections: 10, Target: fault.TargetRF, TargetError: -0.1},
		{Injections: 10, Target: fault.TargetRF, MinRuns: 5},
	}
	for i, cfg := range bad {
		cfg.Obs = campaign.ObsPinout
		cfg.Window = 100
		if _, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestSweepEarlyStopMatchesStandalone: the adaptive engine under Sweep
// (shared goldens, global pool, group-major streaming dispatch) must
// reproduce standalone Run bit for bit, stopping index included.
func TestSweepEarlyStopMatchesStandalone(t *testing.T) {
	f := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 120, Seed: 23, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 2_000, Workers: 4,
		Confidence: 0.95, EarlyStop: true, TargetError: 0.12,
	}
	sr := mustSweep(t, []campaign.SweepCampaign{
		{Key: "adaptive/qsort", Group: "ma/qsort", Factory: f, Config: cfg},
	}, campaign.SweepOptions{Workers: 4})
	standalone := mustRun(t, f, cfg)
	got := sr.Results["adaptive/qsort"]
	if len(got.Outcomes) != len(standalone.Outcomes) {
		t.Fatalf("stopping index differs: sweep %d vs standalone %d",
			len(got.Outcomes), len(standalone.Outcomes))
	}
	for i := range got.Outcomes {
		if got.Outcomes[i] != standalone.Outcomes[i] {
			t.Fatalf("outcome %d differs", i)
		}
	}
	if got.Unsafeness != standalone.Unsafeness {
		t.Errorf("unsafeness differs: %+v vs %+v", got.Unsafeness, standalone.Unsafeness)
	}
	if got.RunsSaved != standalone.RunsSaved || got.CyclesSaved != standalone.CyclesSaved {
		t.Errorf("savings accounting differs: sweep (%d, %d) vs standalone (%d, %d)",
			got.RunsSaved, got.CyclesSaved, standalone.RunsSaved, standalone.CyclesSaved)
	}
}

// TestSweepEarlyStopCheckpointResume: a resumed adaptive sweep must
// reproduce the original stopping state from the outcome records in its
// shards without re-simulating, and under a changed stopping rule the
// same outcome records must yield the new rule's stopping index.
func TestSweepEarlyStopCheckpointResume(t *testing.T) {
	f := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 120, Seed: 23, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 2_000, Workers: 4,
		Confidence: 0.95, EarlyStop: true, TargetError: 0.12,
	}
	matrix := []campaign.SweepCampaign{
		{Key: "adaptive/qsort", Group: "ma/qsort", Factory: f, Config: cfg},
	}
	dir := t.TempDir()
	opt := campaign.SweepOptions{Workers: 4, CheckpointDir: dir}
	first := mustSweep(t, matrix, opt)
	second := mustSweep(t, matrix, opt)
	a, b := first.Results["adaptive/qsort"], second.Results["adaptive/qsort"]
	if second.Resumed < len(a.Outcomes) {
		t.Errorf("resumed only %d of %d counted replays", second.Resumed, len(a.Outcomes))
	}
	if len(a.Outcomes) != len(b.Outcomes) || a.Unsafeness != b.Unsafeness {
		t.Fatalf("resumed sweep diverged: %d/%+v vs %d/%+v",
			len(a.Outcomes), a.Unsafeness, len(b.Outcomes), b.Unsafeness)
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("resumed outcome %d differs", i)
		}
	}

	// Loosening the margin changes the stopping rule: outcome records
	// are reused and the new (earlier) index is derived from them.
	loose := matrix[0]
	loose.Config.TargetError = 0.2
	third := mustSweep(t, []campaign.SweepCampaign{loose}, opt)
	ref := mustRun(t, f, loose.Config)
	got := third.Results["adaptive/qsort"]
	if len(got.Outcomes) != len(ref.Outcomes) || got.Unsafeness != ref.Unsafeness {
		t.Errorf("remargined resume: %d/%+v vs standalone %d/%+v",
			len(got.Outcomes), got.Unsafeness, len(ref.Outcomes), ref.Unsafeness)
	}
}

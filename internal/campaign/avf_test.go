package campaign_test

// Campaign-level differential tests for injection-free ACE/AVF
// estimation (Config.AVF): the estimate must be computable with zero
// replays, the per-fault ACE verdicts must agree with the lifetime
// dead-interval verdicts wherever both are defined, and the sequential
// prior (Config.AVFPrior) must move only the stopping index — never an
// outcome, never the reported estimate.

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// avfMatrix covers both abstraction levels and both traced targets,
// windowed and run-to-end.
var avfMatrix = []struct {
	name   string
	model  core.Model
	target fault.Target
	window uint64
}{
	{"ma/rf/windowed", core.ModelMicroarch, fault.TargetRF, 3000},
	{"ma/rf/to-end", core.ModelMicroarch, fault.TargetRF, 0},
	{"ma/l1d/windowed", core.ModelMicroarch, fault.TargetL1D, 3000},
	{"rtl/rf/windowed", core.ModelRTL, fault.TargetRF, 3000},
	{"rtl/l1d/to-end", core.ModelRTL, fault.TargetL1D, 0},
}

// TestAVFVerdictAgreesWithPruneVerdict is the per-fault differential
// contract: for every planned injection, the ACE interval scan
// (avf.Classify via AVFVerdict) and the pruner's binary search
// (lifetime.ClassifyBit via PruneVerdict) must return the same verdict
// — tracked iff tracked, ACE iff live, and the same consuming cycle.
func TestAVFVerdictAgreesWithPruneVerdict(t *testing.T) {
	for _, tc := range avfMatrix {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			factory := factoryFor(t, "qsort", tc.model)
			g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{Lifetime: true})
			if err != nil {
				t.Fatal(err)
			}
			cfg := campaign.Config{
				Injections: 200, Seed: 23, Target: tc.target,
				Obs: campaign.ObsPinout, Window: tc.window,
			}
			specs, err := g.Plan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ace, dead := 0, 0
			for i, spec := range specs {
				av, ok := g.AVFVerdict(spec, cfg)
				pv := g.PruneVerdict(spec, cfg)
				if ok != pv.Tracked {
					t.Fatalf("spec %d: AVF tracked=%v, prune tracked=%v (%+v)", i, ok, pv.Tracked, spec)
				}
				if !ok {
					continue
				}
				if av.ACE == pv.Dead {
					t.Fatalf("spec %d: ACE=%v but prune dead=%v (%+v)", i, av.ACE, pv.Dead, spec)
				}
				if av.ACE {
					ace++
					if av.Cycle != pv.ConsumeCycle {
						t.Fatalf("spec %d: ACE consume cycle %d, prune consume cycle %d (%+v)",
							i, av.Cycle, pv.ConsumeCycle, spec)
					}
				} else {
					dead++
				}
			}
			if ace == 0 || dead == 0 {
				t.Errorf("degenerate plan (%d ACE, %d dead): the agreement assertion is weak", ace, dead)
			}
		})
	}
}

// TestAVFZeroReplayEstimate: the estimate attached to a campaign's
// Result must equal the one computed from a bare golden run with no
// injection machinery at all — proof the AVF path performs zero
// replays — and enabling AVF must leave every outcome untouched.
func TestAVFZeroReplayEstimate(t *testing.T) {
	factory := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 40, Seed: 13, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3000, Workers: 4,
	}
	plain := mustRun(t, factory, cfg)
	if plain.AVF != nil {
		t.Fatal("Result.AVF set with Config.AVF off")
	}
	cfg.AVF = true
	res := mustRun(t, factory, cfg)
	if res.AVF == nil {
		t.Fatal("Result.AVF missing with Config.AVF on")
	}
	for i := range plain.Outcomes {
		if plain.Outcomes[i] != res.Outcomes[i] {
			t.Fatalf("outcome %d changed under AVF estimation: %+v vs %+v",
				i, plain.Outcomes[i], res.Outcomes[i])
		}
	}

	// The injection-free path: golden run only, no campaign.
	g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{Lifetime: true})
	if err != nil {
		t.Fatal(err)
	}
	est, err := g.AVFEstimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.AVF.Estimate
	if got.ACEBitCycles != est.ACEBitCycles || got.AVF != est.AVF ||
		got.AVFWeighted != est.AVFWeighted || got.Bits != est.Bits ||
		got.Horizon != est.Horizon || got.Window != est.Window {
		t.Fatalf("campaign estimate %+v diverges from injection-free estimate %+v", got, est)
	}
	if got.AVF <= 0 || got.AVF >= 1 {
		t.Errorf("AVF = %v, want a proper fraction on this workload", got.AVF)
	}
	if res.AVF.PlanN != cfg.Injections {
		t.Errorf("PlanN = %d, want %d (every transient spec carries a prediction)",
			res.AVF.PlanN, cfg.Injections)
	}
	if res.AVF.PriorMass != 0 {
		t.Errorf("PriorMass = %v without Config.AVFPrior", res.AVF.PriorMass)
	}
}

// TestAVFPredictionBoundsUnsafeness: ACE analysis can misclassify only
// in one direction (logical masking it cannot see), so the predicted
// fraction must upper-bound the measured unsafe fraction — and every
// fault predicted dead must measure Masked.
func TestAVFPredictionBoundsUnsafeness(t *testing.T) {
	for _, model := range []core.Model{core.ModelMicroarch, core.ModelRTL} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			factory := factoryFor(t, "qsort", model)
			n := 60
			if model == core.ModelRTL {
				n = 24
			}
			cfg := campaign.Config{
				Injections: n, Seed: 29, Target: fault.TargetRF,
				Obs: campaign.ObsPinout, Window: 3000, Workers: 4, AVF: true,
			}
			res := mustRun(t, factory, cfg)
			g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{Lifetime: true})
			if err != nil {
				t.Fatal(err)
			}
			unsafe := 0
			for _, oc := range res.Outcomes {
				v, ok := g.AVFVerdict(oc.Spec, cfg)
				if ok && !v.ACE && oc.Class != campaign.ClassMasked {
					t.Errorf("predicted-dead fault %+v measured %v", oc.Spec, oc.Class)
				}
				if oc.Class != campaign.ClassMasked {
					unsafe++
				}
			}
			measured := float64(unsafe) / float64(len(res.Outcomes))
			if measured > res.AVF.Predicted {
				t.Errorf("measured unsafe fraction %.3f exceeds ACE prediction %.3f", measured, res.AVF.Predicted)
			}
		})
	}
}

// TestAVFPriorMovesOnlyStoppingIndex: seeding sequential stopping with
// the AVF prediction may change where the campaign stops, but the
// outcomes up to the shorter stopping index must be identical, the
// seeded mass must be reported, and the run must stay deterministic. The
// pinned row also holds the prediction and both stopping indices to
// their exact seed-determined values, so a semantic drift fails by name.
func TestAVFPriorMovesOnlyStoppingIndex(t *testing.T) {
	for _, tc := range []struct {
		name, workload string
		cfg            campaign.Config
		// pinned rows: Predicted × Injections, runs to margin without, with
		predicted, plainRuns, priorRuns int
	}{
		{"qsort", "qsort", campaign.Config{
			Injections: 150, Seed: 17, Target: fault.TargetRF,
			Obs: campaign.ObsPinout, Window: 2000, Workers: 4,
			TargetError: 0.12, Confidence: 0.95, AVF: true,
		}, 0, 0, 0},
		{"caes-pinned", "caes", campaign.Config{
			Injections: 150, Seed: 5, Target: fault.TargetRF,
			Obs: campaign.ObsPinout, Window: 2000,
			EarlyStop: true, TargetError: 0.1, Confidence: 0.9, MinRuns: 30, AVF: true,
		}, 26, 34, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			plain := runSmall(t, core.ModelMicroarch, cfg, tc.workload)
			cfg.AVFPrior = true
			prior := runSmall(t, core.ModelMicroarch, cfg, tc.workload)
			again := runSmall(t, core.ModelMicroarch, cfg, tc.workload)
			if len(prior.Outcomes) != len(again.Outcomes) {
				t.Fatalf("prior stopping index nondeterministic: %d vs %d", len(prior.Outcomes), len(again.Outcomes))
			}
			if prior.AVF.PriorMass == 0 {
				t.Error("PriorMass not reported with Config.AVFPrior")
			}
			if plain.AVF.PriorMass != 0 {
				t.Error("PriorMass reported without Config.AVFPrior")
			}
			// The prior pre-satisfies the minimum-runs gate and adds Wilson
			// mass, so stopping must come no later than the prior-less index.
			if len(prior.Outcomes) > len(plain.Outcomes) {
				t.Errorf("prior delayed stopping: %d runs vs %d without", len(prior.Outcomes), len(plain.Outcomes))
			}
			n := min(len(prior.Outcomes), len(plain.Outcomes))
			for i := 0; i < n; i++ {
				if plain.Outcomes[i] != prior.Outcomes[i] {
					t.Fatalf("outcome %d changed under the prior: %+v vs %+v", i, plain.Outcomes[i], prior.Outcomes[i])
				}
			}
			t.Logf("stopped after %d/%d runs with the prior, %d without (predicted %.3f, measured %.3f)",
				len(prior.Outcomes), cfg.Injections, len(plain.Outcomes),
				prior.AVF.Predicted, prior.Unsafeness.P)
			if tc.plainRuns == 0 {
				return
			}
			if plain.AVF.Predicted != float64(tc.predicted)/float64(cfg.Injections) ||
				len(plain.Outcomes) != tc.plainRuns || len(prior.Outcomes) != tc.priorRuns {
				t.Errorf("pins moved: predicted AVF %v, %d runs plain, %d with the prior; want %d/%d, %d, %d",
					plain.AVF.Predicted, len(plain.Outcomes), len(prior.Outcomes),
					tc.predicted, cfg.Injections, tc.plainRuns, tc.priorRuns)
			}
		})
	}
}

// TestAVFConfigValidation: nonsense AVF combinations are rejected.
func TestAVFConfigValidation(t *testing.T) {
	bad := []campaign.Config{
		// Persistent fault models have no single ACE verdict.
		{Injections: 10, Target: fault.TargetRF, AVF: true,
			Fault: fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom}},
		{Injections: 10, Target: fault.TargetRF, AVF: true,
			Fault: fault.Params{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom, Span: 50}},
		// The prior is meaningless without sequential stopping.
		{Injections: 10, Target: fault.TargetRF, AVFPrior: true},
	}
	for i, cfg := range bad {
		cfg.Obs = campaign.ObsPinout
		cfg.Window = 100
		if _, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestAVFPriorStopRecordStaleness: a checkpointed stopping index
// decided with the prior must not cap a prior-less resume (and vice
// versa) — the prior moves the stopping index, so reusing it across
// the switch would silently truncate the campaign.
func TestAVFPriorStopRecordStaleness(t *testing.T) {
	factory := factoryFor(t, "qsort", core.ModelMicroarch)
	dir := t.TempDir()
	mk := func(prior bool) []campaign.SweepCampaign {
		return []campaign.SweepCampaign{{
			Key: "avf", Group: "ma/qsort", Factory: factory,
			Config: campaign.Config{
				Injections: 150, Seed: 17, Target: fault.TargetRF,
				Obs: campaign.ObsPinout, Window: 2000,
				TargetError: 0.12, Confidence: 0.95,
				AVF: true, AVFPrior: prior,
			},
		}}
	}
	withPrior := mustSweep(t, mk(true), campaign.SweepOptions{Workers: 4, CheckpointDir: dir})
	// Same shards, prior off: outcome records may resume, but the
	// stopping index must be re-derived, matching a checkpoint-less run.
	resumed := mustSweep(t, mk(false), campaign.SweepOptions{Workers: 4, CheckpointDir: dir})
	fresh := mustSweep(t, mk(false), campaign.SweepOptions{Workers: 4})
	a, b := resumed.Results["avf"], fresh.Results["avf"]
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("stale prior stop record capped the resume: %d outcomes, want %d",
			len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d diverged across prior-off resume", i)
		}
	}
	if len(withPrior.Results["avf"].Outcomes) == len(b.Outcomes) {
		t.Log("prior and prior-less runs stopped at the same index; the staleness check is vacuous here")
	}
}

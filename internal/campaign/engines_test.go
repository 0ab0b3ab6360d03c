package campaign_test

// The engine × host matrix: every replay engine, under every host that
// can drive it, must reproduce the scalar standalone run — the oracle —
// field for field. The three engines share one pool and one collector,
// so this is one table instead of a cross-proof per pair.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// normalizeEngine clears what legitimately differs between two engines
// or hosts executing one campaign: wall time, the execution-only config
// knobs that select the engine, and each engine's own accounting of how
// it got there (golden cycles walked). Everything observable about the
// faults stays.
func normalizeEngine(r *campaign.Result) {
	normalizeResult(r)
	r.Config.Lanes, r.Config.Sched = 0, 0
	r.FastForwardCycles, r.FastForwardSaved = 0, 0
}

func TestEngineHostMatrix(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  campaign.Config
	}{
		{"plain", campaign.Config{
			Injections: 24, Seed: 3, Target: fault.TargetRF, Window: 400,
		}},
		{"earlystop+prune-dead", campaign.Config{
			Injections: 24, Seed: 5, Target: fault.TargetL1D, Window: 400,
			EarlyStop: true, Prune: campaign.PruneDead,
		}},
		{"sequential-stop", campaign.Config{
			Injections: 80, Seed: 7, Target: fault.TargetRF, Window: 400,
			TargetError: 0.2, MinRuns: 10, Confidence: 0.95,
		}},
		{"protected", campaign.Config{
			Injections: 24, Seed: 9, Target: fault.TargetRF, Window: 400,
			Protect: "rf=parity",
		}},
	}
	engines := []struct {
		name  string
		lanes int
		sched campaign.Sched
		typ   string // the Replayer NewReplayer must pick
	}{
		{"scalar", 1, campaign.SchedStream, "*campaign.scalarReplayer"},
		{"cursor", 1, campaign.SchedCursor, "*campaign.CursorReplayer"},
		{"batch", 8, campaign.SchedStream, "*campaign.BatchReplayer"},
	}
	hosts := []struct {
		name string
		run  func(t *testing.T, fac campaign.Factory, cfg campaign.Config) *campaign.Result
	}{
		{"Run", func(t *testing.T, fac campaign.Factory, cfg campaign.Config) *campaign.Result {
			res, err := campaign.Run(fac, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"Sweep", func(t *testing.T, fac campaign.Factory, cfg campaign.Config) *campaign.Result {
			sr, err := campaign.Sweep([]campaign.SweepCampaign{
				{Key: "k", Group: "g", Factory: fac, Config: cfg},
			}, campaign.SweepOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			return sr.Results["k"]
		}},
		{"manual", driveEngineManually},
	}
	// Both simulators have a batch surface, so the whole table runs on
	// each: the same three engines must be what the rows select.
	for _, model := range []core.Model{core.ModelRTL, core.ModelMicroarch} {
		fac := factoryFor(t, "sha", model)
		for _, sc := range scenarios {
			sc := sc
			t.Run(model.String()+"/"+sc.name, func(t *testing.T) {
				t.Parallel()
				oracleCfg := sc.cfg
				oracleCfg.Lanes, oracleCfg.Workers = 1, 2
				want, err := campaign.Run(fac, oracleCfg)
				if err != nil {
					t.Fatal(err)
				}
				if sc.cfg.TargetError > 0 && want.RunsSaved == 0 {
					t.Fatal("sequential-stop scenario never stopped early; it tests nothing")
				}
				normalizeEngine(want)
				for _, e := range engines {
					for _, h := range hosts {
						if e.name == "scalar" && h.name == "Run" {
							continue // the oracle itself
						}
						cfg := sc.cfg
						cfg.Lanes, cfg.Sched, cfg.Workers = e.lanes, e.sched, 2
						got := h.run(t, fac, cfg)
						normalizeEngine(got)
						if !reflect.DeepEqual(want, got) {
							t.Errorf("%s engine under %s diverged from the scalar Run oracle:\n got %+v\nwant %+v",
								e.name, h.name, got, want)
						}
					}
				}
			})
		}
		// The table means what it says only if each row really selects
		// its engine.
		g, err := campaign.PrepareGolden(fac, campaign.GoldenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			cfg := scenarios[0].cfg
			cfg.Lanes, cfg.Sched = e.lanes, e.sched
			r, err := campaign.NewReplayer(&campaign.Work{Golden: g, Config: cfg, Factory: fac})
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
			if got := fmt.Sprintf("%T", r); got != e.typ {
				t.Errorf("%v: %s row selected %s, want %s", model, e.name, got, e.typ)
			}
		}
	}
}

// driveEngineManually is the coordinator-shaped host: pull every replay
// job by hand, execute them on the engine the config selects, deliver
// the outcomes in REVERSE order (the collector must not care), and
// aggregate.
func driveEngineManually(t *testing.T, fac campaign.Factory, cfg campaign.Config) *campaign.Result {
	t.Helper()
	g, err := campaign.PrepareGolden(fac, campaign.GoldenOptionsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.PlanCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := campaign.NewReplayer(&campaign.Work{Golden: g, Config: cfg, Factory: fac})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	type done struct {
		idx int
		oc  campaign.RunOutcome
	}
	var outs []done
	err = r.Replay(p.NextReplay, func(idx int, oc campaign.RunOutcome) error {
		outs = append(outs, done{idx, oc})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Executed; got != len(outs) {
		t.Errorf("replayer reports %d executed, delivered %d", got, len(outs))
	}
	for i := len(outs) - 1; i >= 0; i-- {
		if err := p.Deliver(outs[i].idx, outs[i].oc); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/protect"
)

// TestAblationModelsDeterministic is E9's acceptance test: the
// fault-model ablation must produce one series per (abstraction level,
// fault model) — all four models on both levels — share one golden run
// per level, and be bit-deterministic at a fixed seed.
func TestAblationModelsDeterministic(t *testing.T) {
	p := DefaultParams()
	p.Injections = 5
	p.Seed = 4
	p.Benches = []string{"caes"}
	run := func() *FigureResult {
		t.Helper()
		res, err := p.Run("ablation-models")
		if err != nil {
			t.Fatal(err)
		}
		return res.Fig
	}
	a := run()
	if len(a.Series) != 8 {
		t.Fatalf("series = %d, want 4 models x 2 levels", len(a.Series))
	}
	if a.GoldenRuns != 2 {
		t.Errorf("E9 ran %d golden runs, want one per level", a.GoldenRuns)
	}
	wantLabels := map[string]bool{}
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		for _, fm := range []fault.Model{
			fault.ModelTransient, fault.ModelBurst,
			fault.ModelStuckAt, fault.ModelIntermittent,
		} {
			wantLabels[m.String()+"/"+fm.String()] = true
		}
	}
	for _, s := range a.Series {
		if !wantLabels[s.Label] {
			t.Errorf("unexpected series %q", s.Label)
		}
		delete(wantLabels, s.Label)
		res := s.Results["caes"]
		if res == nil || len(res.Outcomes) != 5 {
			t.Fatalf("%s: missing or truncated campaign result", s.Label)
		}
	}
	for l := range wantLabels {
		t.Errorf("missing series %q", l)
	}

	b := run()
	for i, s := range a.Series {
		other := b.Series[i]
		if s.Label != other.Label {
			t.Fatalf("series order unstable: %q vs %q", s.Label, other.Label)
		}
		if s.Vuln["caes"] != other.Vuln["caes"] {
			t.Errorf("%s: unsafeness differs across runs at the same seed: %+v vs %+v",
				s.Label, s.Vuln["caes"], other.Vuln["caes"])
		}
		ra, rb := s.Results["caes"], other.Results["caes"]
		for j := range ra.Outcomes {
			if ra.Outcomes[j] != rb.Outcomes[j] {
				t.Fatalf("%s: outcome %d differs across runs at the same seed", s.Label, j)
			}
		}
	}
}

// paramsKnobs are the Params fields baseConfig forwards, by name, each
// with a non-default value to set and the Config field it must arrive
// in.
var paramsKnobs = map[string]struct {
	set  func(*Params)
	got  func(campaign.Config) any
	want any
}{
	"Fault": {func(p *Params) { p.Fault = fault.Params{Model: fault.ModelBurst, Burst: 4} },
		func(c campaign.Config) any { return c.Fault }, fault.Params{Model: fault.ModelBurst, Burst: 4}},
	"Prune": {func(p *Params) { p.Prune = campaign.PruneDead },
		func(c campaign.Config) any { return c.Prune }, campaign.PruneDead},
	"EarlyStop": {func(p *Params) { p.EarlyStop = true },
		func(c campaign.Config) any { return c.EarlyStop }, true},
	"TargetError": {func(p *Params) { p.TargetError = 0.125 },
		func(c campaign.Config) any { return c.TargetError }, 0.125},
	"Lanes": {func(p *Params) { p.Lanes = 7 },
		func(c campaign.Config) any { return c.Lanes }, 7},
}

// checkKnobCarried asserts one Params knob against every series of
// every registered experiment: it arrives untouched unless the
// descriptor declares it owns the field, and a descriptor that owns it
// really does decide it itself in at least one series.
func checkKnobCarried(t *testing.T, field string) {
	t.Helper()
	k, ok := paramsKnobs[field]
	if !ok {
		t.Fatalf("no knob %q", field)
	}
	p := DefaultParams()
	k.set(&p)
	for _, e := range Experiments() {
		owned, overridden := slices.Contains(e.Owns, field), false
		for _, s := range e.series(p, p.baseConfig()) {
			carried := k.got(s.cfg) == k.want
			if !carried && !owned {
				t.Errorf("E%d %s/%s: %s = %v not carried (got %v) and not declared in Owns",
					e.ID, e.Name, s.label, field, k.want, k.got(s.cfg))
			}
			overridden = overridden || !carried
		}
		if owned && !overridden {
			t.Errorf("E%d %s: declares it owns %s but every series carries the global value", e.ID, e.Name, field)
		}
	}
}

// TestFigurePlansCarryFaultModel: the -fault-model flag must reach every
// series of every experiment that does not sweep the fault model itself.
func TestFigurePlansCarryFaultModel(t *testing.T) { checkKnobCarried(t, "Fault") }

// TestFigurePlansCarryPrune: the -prune flag must reach every series of
// every experiment that does not declare it owns pruning.
func TestFigurePlansCarryPrune(t *testing.T) { checkKnobCarried(t, "Prune") }

// TestFigurePlansCarryEngineKnobs: likewise -early-stop, -target-error
// and -lanes; and -window reaches every windowed series (a series may
// instead run to the end) unless the experiment sweeps the window.
func TestFigurePlansCarryEngineKnobs(t *testing.T) {
	for _, field := range []string{"EarlyStop", "TargetError", "Lanes"} {
		checkKnobCarried(t, field)
	}
	p := DefaultParams()
	p.Window = 777
	for _, e := range Experiments() {
		if slices.Contains(e.Owns, "Window") {
			continue
		}
		for _, s := range e.series(p, p.baseConfig()) {
			if s.cfg.Window != 0 && s.cfg.Window != p.Window {
				t.Errorf("E%d %s/%s: window %d is neither run-to-end nor the global %d",
					e.ID, e.Name, s.label, s.cfg.Window, p.Window)
			}
		}
	}
}

// TestRegistryShape: names, figure names and E-numbers are unique, every
// Owns entry names a forwarded Params field, and `paper -all` is exactly
// the paper's three figures plus the two ablations that share their
// goldens.
func TestRegistryShape(t *testing.T) {
	known := map[string]bool{"Window": true}
	for field := range paramsKnobs {
		known[field] = true
	}
	seen := map[string]bool{}
	var inAll []int
	for _, e := range Experiments() {
		for _, key := range []string{"name " + e.Name, "figure " + e.Figure, fmt.Sprint("E", e.ID)} {
			if seen[key] {
				t.Errorf("duplicate %s in the registry", key)
			}
			seen[key] = true
		}
		for _, f := range e.Owns {
			if !known[f] {
				t.Errorf("E%d %s: Owns names %q, not a Params field baseConfig forwards", e.ID, e.Name, f)
			}
		}
		if e.InAll {
			inAll = append(inAll, e.ID)
		}
		if got, err := LookupExperiment(e.Name); err != nil || got.Figure != e.Figure {
			t.Errorf("LookupExperiment(%q) = %v, %v", e.Name, got, err)
		}
	}
	slices.Sort(inAll)
	if want := []int{3, 4, 5, 7, 8}; !slices.Equal(inAll, want) {
		t.Errorf("InAll experiments = E%v, want E%v", inAll, want)
	}
	_, err := LookupExperiment("nope")
	if err == nil || !strings.Contains(err.Error(), `unknown figure "nope" (have: 1, 2, 3, ablation-window,`) {
		t.Errorf("unknown name error = %v", err)
	}
}

// TestExperimentAVF is E12's acceptance test: the injection-free
// estimator must be differentially consistent with the fault-injection
// campaigns it rides on, on BOTH abstraction levels — the exhaustive
// weighted AVF inside every plan-sample Wilson interval, the measured
// unsafe fraction never above the ACE prediction, and the whole
// estimate attached without a single extra replay or golden run.
func TestExperimentAVF(t *testing.T) {
	p := DefaultParams()
	p.Injections = 60
	p.Seed = 5
	p.Benches = []string{"caes"}
	res, err := p.Run("avf")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows.([]AVFRow)
	if len(res.Fig.Series) != 4 {
		t.Fatalf("series = %d, want 2 targets x 2 levels", len(res.Fig.Series))
	}
	if res.Fig.GoldenRuns != 2 {
		t.Errorf("E12 ran %d golden runs, want one per level", res.Fig.GoldenRuns)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want one per (level, target, benchmark)", len(rows))
	}
	levels := map[string]bool{}
	for _, r := range rows {
		levels[r.Level] = true
		if r.AVF <= 0 || r.AVF >= 1 || r.AVFWeighted <= 0 || r.AVFWeighted >= 1 {
			t.Errorf("%s/%s/%s: degenerate AVF estimate (%.3f, weighted %.3f)",
				r.Level, r.Target, r.Bench, r.AVF, r.AVFWeighted)
		}
		if !r.Within {
			t.Errorf("%s/%s/%s: exhaustive weighted AVF %.3f outside the plan-sample Wilson interval [%.3f, %.3f]",
				r.Level, r.Target, r.Bench, r.AVFWeighted, r.Predicted.Lo, r.Predicted.Hi)
		}
		if !r.Bounded {
			t.Errorf("%s/%s/%s: measured unsafe fraction %.3f exceeds the ACE prediction %.3f — "+
				"the one-sided bound is broken, not just noisy",
				r.Level, r.Target, r.Bench, r.FIUnsafe.P, r.Predicted.P)
		}
		if r.Gap < 0 {
			t.Errorf("%s/%s/%s: negative masking gap %.3f", r.Level, r.Target, r.Bench, r.Gap)
		}
		t.Logf("%s/%s/%s: AVF=%.3f weighted=%.3f predicted=%.3f [%.3f,%.3f] FI=%.3f gap=%.3f",
			r.Level, r.Target, r.Bench, r.AVF, r.AVFWeighted,
			r.Predicted.P, r.Predicted.Lo, r.Predicted.Hi, r.FIUnsafe.P, r.Gap)
	}
	if !levels["microarch"] || !levels["rtl"] {
		t.Errorf("rows cover levels %v, want both abstraction levels", levels)
	}
	// The RTL datapath's logical masking dwarfs the microarchitectural
	// one on the register file — the cross-level observable E12 exists
	// to surface. Pin the ordering, not the magnitude.
	gap := map[string]float64{}
	for _, r := range rows {
		if r.Target == fault.TargetRF.String() {
			gap[r.Level] = r.Gap
		}
	}
	if gap["rtl"] <= gap["microarch"] {
		t.Errorf("register-file masking gap rtl=%.3f <= microarch=%.3f; expected the RTL gap to dominate",
			gap["rtl"], gap["microarch"])
	}
}

// TestExperimentProtection is E13's acceptance test: the full matrix —
// both levels, all four fault models, every structure, all three
// schemes — folds against per-cell unprotected baselines over one
// shared golden run per level, every protected arm reports its
// overhead, SECDED never posts a worse SDC fraction than its baseline,
// and the checker-logic region obeys the analytic blind-spot rule:
// non-persistent overhead-logic faults always detect (rate 1), pinned
// stuck-at-0 ones never do (rate 0). Every twin replays, on the shortest
// bench at the smallest sample that puts checker-logic faults on both
// sides of the rule.
func TestExperimentProtection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the E13 matrix (20 replayed campaigns, 60 derived arms); exercised by the full suite and `paper -fig protection`")
	}
	p := DefaultParams()
	p.Injections = 5
	p.Seed = 1
	p.Benches = []string{"sha"}
	res, err := p.Run("protection")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows.([]ProtectionRow)
	if res.Fig.GoldenRuns != 2 {
		t.Errorf("E13 ran %d golden runs, want one per level", res.Fig.GoldenRuns)
	}
	// 4 fault models x (2 microarch + 3 rtl targets) x 3 schemes.
	if want := 4 * (2 + 3) * 3; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	persistent := map[string]bool{"stuck-at": true, "intermittent": true}
	ruled := map[bool]int{}
	for _, r := range rows {
		if r.OverheadBits <= 0 || r.DataBits <= 0 {
			t.Errorf("%s/%s/%s/%s: missing bit accounting (%d data, %d overhead)",
				r.Level, r.Model, r.Target, r.Scheme, r.DataBits, r.OverheadBits)
		}
		if r.Runs == 0 {
			t.Errorf("%s/%s/%s/%s: empty arm", r.Level, r.Model, r.Target, r.Scheme)
		}
		if r.Scheme == "secded" && r.SDCFrac > r.BaseSDCFrac {
			t.Errorf("%s/%s/%s: SECDED raised the SDC fraction (%.3f -> %.3f)",
				r.Level, r.Model, r.Target, r.BaseSDCFrac, r.SDCFrac)
		}
		if r.LogicRuns == 0 {
			continue
		}
		want := 1.0
		if persistent[r.Model] {
			want = 0.0 // pinned stuck-at-0 disarms the checker
		}
		if r.LogicDUERate != want {
			t.Errorf("%s/%s/%s/%s: checker-logic DUE rate %.3f over %d faults, want %.1f",
				r.Level, r.Model, r.Target, r.Scheme, r.LogicDUERate, r.LogicRuns, want)
		}
		ruled[persistent[r.Model]]++
	}
	if ruled[false] == 0 || ruled[true] == 0 {
		t.Errorf("the blind-spot rule met %d non-persistent and %d persistent arms with checker-logic faults; the sample must reach both",
			ruled[false], ruled[true])
	}
}

// TestProtectedArmsDeriveFromTwins holds every protected arm E13
// reports — both levels, all four fault models, every structure and
// scheme — to its unprotected twin: a fault landing in data is the
// twin's fault at the same index, its class the per-word arity rule's
// transform of the twin's (detect gives DUE, correct gives Masked, a
// Masked twin stays Masked); every other fault reaches the overhead
// region and carries OverheadDUE's verdict on its first overhead bit.
// Only the unprotected arms replay: an arm simulates no cycle, and its
// execution account is its twin's.
func TestProtectedArmsDeriveFromTwins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E13's 20 unprotected campaigns; exercised by the full suite")
	}
	p := DefaultParams()
	p.Injections = 8
	p.Seed = 3
	p.Benches = []string{"caes"}
	res, err := p.Run("protection")
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * (2 + 3) * len(protectionSchemes); len(res.Fig.Series) != want {
		t.Fatalf("%d series, want %d", len(res.Fig.Series), want)
	}
	byLabel := seriesByLabel(res.Fig)
	kinds := map[bool]int{}
	for _, m := range levels {
		for _, fm := range sweptFaultModels(p.Fault, 0) {
			for _, tgt := range protectionTargets(m) {
				twin := byLabel[protectionLabel(m, fm.Model, tgt, protect.SchemeNone)].Results["caes"]
				bits, err := TargetBits("caes", m, p.Setup, tgt)
				if err != nil {
					t.Fatal(err)
				}
				for _, sc := range protectionSchemes[1:] {
					label := protectionLabel(m, fm.Model, tgt, sc)
					arm := byLabel[label].Results["caes"]
					if arm.Account != twin.Account || arm.CyclesSimulated != 0 {
						t.Errorf("%s replayed: account %+v (twin's %+v), %d cycles", label, arm.Account, twin.Account, arm.CyclesSimulated)
					}
					if len(arm.Outcomes) != len(twin.Outcomes) {
						t.Fatalf("%s: %d outcomes, twin has %d", label, len(arm.Outcomes), len(twin.Outcomes))
					}
					for i, oc := range arm.Outcomes {
						lo, hi := oc.Spec.BitSpan()
						kinds[oc.Overhead]++
						want := campaign.ClassMasked
						if !oc.Overhead {
							tw := twin.Outcomes[i]
							if want = tw.Class; want != campaign.ClassMasked {
								switch protect.EvalSpan(sc, lo, hi) {
								case protect.ActionDetect:
									want = campaign.ClassDUE
								case protect.ActionCorrect:
									want = campaign.ClassMasked
								}
							}
							if oc.Spec != tw.Spec || hi > bits {
								t.Errorf("%s data fault %d: spec %+v, twin's %+v (%d data bits)", label, i, oc.Spec, tw.Spec, bits)
							}
						} else {
							if hi <= bits {
								t.Errorf("%s overhead fault %d lies in data: bits [%d,%d) of %d", label, i, lo, hi, bits)
							}
							if protect.OverheadDUE(sc, protect.RegionOf(sc, bits, max(lo, bits)), oc.Spec.Model, oc.Spec.Stuck) {
								want = campaign.ClassDUE
							}
						}
						if oc.Class != want {
							t.Errorf("%s fault %d (overhead %v, bits [%d,%d)): class %v, want %v", label, i, oc.Overhead, lo, hi, oc.Class, want)
						}
					}
				}
			}
		}
	}
	if kinds[false] == 0 || kinds[true] == 0 {
		t.Errorf("the draws met %d data and %d overhead faults; the sample must reach both", kinds[false], kinds[true])
	}
}

// TestAblationPruning is E11's acceptance test: full vs dead vs classes
// on both levels over one shared golden run per level, exact drift on
// the dead arm, and real savings in simulated cycles.
func TestAblationPruning(t *testing.T) {
	p := DefaultParams()
	p.Injections = 24
	p.Seed = 5
	p.Benches = []string{"caes"}
	res, err := p.Run("pruning")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows.([]PruningRow)
	if len(res.Fig.Series) != 6 {
		t.Fatalf("series = %d, want 3 prune modes x 2 levels", len(res.Fig.Series))
	}
	if res.Fig.GoldenRuns != 2 {
		t.Errorf("E11 ran %d golden runs, want one per level", res.Fig.GoldenRuns)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want one per (level, benchmark)", len(rows))
	}
	for _, r := range rows {
		if r.DriftDead != 0 {
			t.Errorf("%s/%s: dead pruning drifted %.4f (must be exact)", r.Level, r.Bench, r.DriftDead)
		}
		if r.Pruned == 0 {
			t.Errorf("%s/%s: nothing pruned", r.Level, r.Bench)
		}
		if r.DeadMCycles >= r.FullMCycles {
			t.Errorf("%s/%s: dead pruning saved nothing (%.3fM vs %.3fM)",
				r.Level, r.Bench, r.DeadMCycles, r.FullMCycles)
		}
		if r.ClassesMCycles > r.DeadMCycles {
			t.Errorf("%s/%s: classes mode simulated more than dead mode (%.3fM vs %.3fM)",
				r.Level, r.Bench, r.ClassesMCycles, r.DeadMCycles)
		}
	}
}

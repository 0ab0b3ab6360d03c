package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/lifetime"
	"repro/internal/refsim"
	"repro/internal/trace"
)

// TestSetupsAreEquivalent: each named setup is one machine on both
// levels — the two models' simulators report the same L1D bit space,
// laid out over the same sets and ways — and an unknown setup name is
// an error wherever a name is resolved.
func TestSetupsAreEquivalent(t *testing.T) {
	w, err := bench.ByName("caes")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		setup   Setup
		l1dBits int
	}{
		{CampaignSetup(), 512 * 8},
		{DefaultSetup(), 32 * 1024 * 8},
	} {
		var sims [2]campaign.Simulator
		for i, m := range levels {
			if sims[i], err = NewSimulator(m, p, tc.setup); err != nil {
				t.Fatalf("%s on %v: %v", tc.setup.Name, m, err)
			}
			if n := sims[i].Bits(fault.TargetL1D); n != tc.l1dBits {
				t.Errorf("%s on %v: %d L1D bits, want %d", tc.setup.Name, m, n, tc.l1dBits)
			}
		}
		for _, bit := range []int{0, 32*8 - 1, 32 * 8, tc.l1dBits - 1} {
			ms, mw := sims[0].L1DLineOfBit(bit)
			rs, rw := sims[1].L1DLineOfBit(bit)
			if ms != rs || mw != rw {
				t.Errorf("%s: L1D bit %d sits in set %d way %d on microarch, set %d way %d on rtl", tc.setup.Name, bit, ms, mw, rs, rw)
			}
		}
	}
	if _, err := ParseSim("qsort", "microarch", "nope"); err == nil || !strings.Contains(err.Error(), `unknown setup "nope"`) {
		t.Errorf("ParseSim with an unknown setup: %v", err)
	}
	for _, m := range levels {
		if _, err := NewSimulator(m, p, Setup{Name: "nope"}); err == nil || !strings.Contains(err.Error(), `unknown setup "nope"`) {
			t.Errorf("NewSimulator(%v) with an unknown setup: %v", m, err)
		}
	}
}

// TestTableIMatchesPaper: TABLE I's rows, exactly as the paper's table
// and every earlier rendering of it.
func TestTableIMatchesPaper(t *testing.T) {
	want := []TableIRow{
		{"ISA / Core", "AL32 (ARM-inspired) / Out-of-order"},
		{"Data cache", "32KB 4-way"},
		{"Instruction cache", "32KB 4-way"},
		{"Physical Register File", "56 registers"},
		{"Instruction queue", "32"},
		{"Reorder buffer", "40"},
		{"Fetch/Execute/Writeback width", "2/4/4"},
	}
	if got := TableI(); !reflect.DeepEqual(got, want) {
		t.Errorf("TABLE I = %q, want %q", got, want)
	}
}

func TestParseModel(t *testing.T) {
	for s, want := range map[string]Model{"microarch": ModelMicroarch, "ma": ModelMicroarch, "gefin": ModelMicroarch, "rtl": ModelRTL} {
		got, err := ParseModel(s)
		if err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseModel("spice"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestSimIdentity: every accepted spelling of one simulator parses to
// one Sim, and every matrix item sits in the sweep group its simulator
// names: a standalone campaign's, and every item of the `paper -all`
// matrix, collected through a capturing SweepRunner the way a fleet
// submitter collects it.
func TestSimIdentity(t *testing.T) {
	want, err := ParseSim("qsort", "microarch", "campaign")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"ma", "microarch"} {
		for _, setup := range []string{"", "campaign"} {
			if got, err := ParseSim("qsort", model, setup); err != nil || got != want {
				t.Errorf("ParseSim(qsort, %q, %q) = %+v, %v; want %+v", model, setup, got, err, want)
			}
		}
	}
	if _, err := ParseSim("no-such-bench", "rtl", ""); err == nil {
		t.Error("unknown workload accepted")
	}

	inGroup := func(it MatrixItem) {
		t.Helper()
		sim, err := ParseSim(it.Workload, it.Model.String(), it.Setup)
		if err != nil {
			t.Fatalf("%s: %v", it.Campaign.Key, err)
		}
		if sim.Group() != it.Campaign.Group {
			t.Errorf("%s: group %q, its simulator names %q", it.Campaign.Key, it.Campaign.Group, sim.Group())
		}
	}
	for _, setup := range []Setup{CampaignSetup(), DefaultSetup()} {
		for _, m := range levels {
			it, err := Standalone("sha", m, setup, campaign.Config{})
			if err != nil {
				t.Fatal(err)
			}
			inGroup(it)
		}
	}

	errCollected := errors.New("collected")
	var items []MatrixItem
	p := DefaultParams()
	p.Runner = func(its []MatrixItem, _ campaign.SweepOptions) (*campaign.SweepResult, error) {
		items = append(items, its...)
		return nil, errCollected
	}
	if _, err := p.RunAll(); !errors.Is(err, errCollected) {
		t.Fatalf("RunAll with a collecting runner: %v", err)
	}
	if len(items) == 0 {
		t.Fatal("the -all matrix is empty")
	}
	for _, it := range items {
		inGroup(it)
	}
}

// TestAdaptersAgreeArchitecturally runs one benchmark through both
// adapters under the same setup; program outputs must be identical.
func TestAdaptersAgreeArchitecturally(t *testing.T) {
	w, err := bench.ByName("stringsearch")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	setup := CampaignSetup()
	var outs [2]string
	for i, m := range []Model{ModelMicroarch, ModelRTL} {
		sim, err := NewSimulator(m, p, setup)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetPinout(&trace.Pinout{})
		if stop := sim.Run(1 << 32); stop != refsim.StopExit {
			t.Fatalf("%v: stop %v", m, stop)
		}
		outs[i] = string(sim.Output())
	}
	if outs[0] != outs[1] {
		t.Error("adapters disagree on program output")
	}
	if outs[0] != string(w.Expected()) {
		t.Error("adapters disagree with the oracle")
	}
}

// TestAdapterSnapshotPortability: a snapshot captured by one instance
// must restore into a fresh instance of the same factory (the campaign
// worker pattern) on both models.
func TestAdapterSnapshotPortability(t *testing.T) {
	w, err := bench.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	setup := CampaignSetup()
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		t.Run(m.String(), func(t *testing.T) {
			a, err := NewSimulator(m, p, setup)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3000; i++ {
				a.Step()
			}
			snap := a.Snapshot()
			a.Run(1 << 32)

			b, err := NewSimulator(m, p, setup)
			if err != nil {
				t.Fatal(err)
			}
			b.Restore(snap)
			if b.Cycles() != 3000 {
				t.Fatalf("restored cycles = %d", b.Cycles())
			}
			b.Run(1 << 32)
			if a.Cycles() != b.Cycles() || string(a.Output()) != string(b.Output()) {
				t.Errorf("cross-instance replay diverged: %d vs %d cycles", a.Cycles(), b.Cycles())
			}
		})
	}
}

// TestLatchBitsOnlyAtRTL holds each model's one fault surface to its
// contract over every (model, target) pair: the bit spaces the levels
// are compared on, a range check at both ends, a flip a second flip
// undoes, an idempotent force, and lifetime spaces laid out as the
// fault space they trace.
func TestLatchBitsOnlyAtRTL(t *testing.T) {
	w, err := bench.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	setup := CampaignSetup()
	const l1dBits = 512 * 8
	for _, tc := range []struct {
		m    Model
		t    fault.Target
		bits int // -1: some
	}{
		// RF bit spaces intentionally differ (56 physical vs 16
		// architectural registers) — the substitution EXPERIMENTS.md
		// documents; L1D spaces agree exactly under an equivalent setup;
		// latches exist at RTL only.
		{ModelMicroarch, fault.TargetRF, 56 * 32},
		{ModelMicroarch, fault.TargetL1D, l1dBits},
		{ModelMicroarch, fault.TargetLatches, 0},
		{ModelRTL, fault.TargetRF, 16 * 32},
		{ModelRTL, fault.TargetL1D, l1dBits},
		{ModelRTL, fault.TargetLatches, -1},
	} {
		t.Run(tc.m.String()+"/"+tc.t.String(), func(t *testing.T) {
			sim, err := NewSimulator(tc.m, p, setup)
			if err != nil {
				t.Fatal(err)
			}
			n := sim.Bits(tc.t)
			if n != tc.bits && (tc.bits >= 0 || n <= 0) {
				t.Fatalf("Bits = %d, want %d", n, tc.bits)
			}
			for _, i := range []int{-1, n} {
				if sim.Flip(tc.t, i) == nil || sim.Force(tc.t, i, 1) == nil {
					t.Errorf("bit %d of %d accepted", i, n)
				}
			}
			if n == 0 {
				return
			}
			sim.Run(3000)
			for _, i := range []int{0, n / 3, n - 1} {
				h := sim.StateHash()
				if sim.Flip(tc.t, i) != nil || sim.StateHash() == h {
					t.Errorf("flip of bit %d left the state as it was", i)
				}
				if sim.Flip(tc.t, i) != nil || sim.StateHash() != h {
					t.Errorf("a second flip of bit %d did not restore the state", i)
				}
				for _, v := range []int{0, 1} {
					sim.Force(tc.t, i, v)
					h := sim.StateHash()
					if sim.Force(tc.t, i, v) != nil || sim.StateHash() != h {
						t.Errorf("a second force of bit %d to %d changed the state", i, v)
					}
				}
			}
			if tc.t == fault.TargetLatches {
				return // no lifetime trace covers the latches
			}
			rec := lifetime.NewRecorder()
			sim.SetLifetime(rec)
			defer sim.SetLifetime(nil)
			if sp := rec.Get(int(tc.t)); sp == nil || sp.Bits() != n {
				t.Errorf("lifetime space %v does not span the %d-bit fault space", sp, n)
			}
		})
	}
}

func TestRunCampaignUnknownWorkload(t *testing.T) {
	cfg := campaign.Config{Injections: 1, Target: fault.TargetRF, Window: 100}
	if _, err := RunCampaign("nope", ModelMicroarch, CampaignSetup(), cfg); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFigureSmall(t *testing.T) {
	p := DefaultParams()
	p.Injections = 15
	p.Benches = []string{"sha"}
	fig, err := p.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 || len(fig.Benches) != 1 {
		t.Fatalf("figure shape: %d series, %d benches", len(fig.Series), len(fig.Benches))
	}
	for _, s := range fig.Series {
		if s.Vuln["sha"].N != 15 {
			t.Errorf("series %s has N=%d", s.Label, s.Vuln["sha"].N)
		}
	}
}

// TestFigure1GoldenRunCount asserts the acceptance criterion: Fig. 1 has
// three series but its two GeFIN series share one golden run, so the
// sweep executes 2 golden runs per benchmark, not 3.
func TestFigure1GoldenRunCount(t *testing.T) {
	p := DefaultParams()
	p.Injections = 10
	p.Benches = []string{"sha"}
	fig, err := p.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if fig.GoldenRuns != 2 {
		t.Errorf("Figure 1 on one benchmark ran %d golden runs, want 2", fig.GoldenRuns)
	}
}

// TestAblationWindowSharesOneGolden: every window length of the
// registry's sweep on one model and benchmark needs exactly one golden
// run between them.
func TestAblationWindowSharesOneGolden(t *testing.T) {
	p := DefaultParams()
	p.Injections = 8
	p.Benches = []string{"sha"}
	res, err := p.Run("ablation-window")
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Fig
	if fig.GoldenRuns != 1 {
		t.Errorf("window ablation ran %d golden runs, want 1", fig.GoldenRuns)
	}
	if len(fig.Series) != len(ablationWindows) {
		t.Fatalf("series = %d, want one per registered window", len(fig.Series))
	}
}

// TestRunAllSharesGoldens regenerates everything on one benchmark: the
// whole regeneration — figures 1-3, both ablations and TABLE II — must
// execute at most one golden run per (model, benchmark).
func TestRunAllSharesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full regeneration in -short mode")
	}
	p := DefaultParams()
	p.Injections = 8
	p.Benches = []string{"sha"}
	all, err := p.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if all.GoldenRuns != 2 {
		t.Errorf("full regeneration ran %d golden runs on one benchmark, want 2 (microarch + rtl)", all.GoldenRuns)
	}
	if len(all.Figures) != 5 {
		t.Fatalf("RunAll returned %d figures, want the 5 InAll experiments", len(all.Figures))
	}
	for _, res := range all.Figures {
		fig := res.Fig
		if fig == nil || len(fig.Series) == 0 {
			t.Fatalf("missing figure in RunAll result")
		}
		for _, s := range fig.Series {
			if s.Vuln["sha"].N != 8 {
				t.Errorf("%s/%s: N = %d", fig.Name, s.Label, s.Vuln["sha"].N)
			}
		}
	}
	if len(all.Table2Rows) != 1 {
		t.Fatalf("TABLE II rows = %d", len(all.Table2Rows))
	}
	row := all.Table2Rows[0]
	if row.RTLSecPerRun <= 0 || row.MASecPerRun <= 0 || row.Ratio <= 0 {
		t.Errorf("TABLE II row not measured from sweep goldens: %+v", row)
	}
	if row.MAMCycles <= 0 || row.RTLMCycles <= 0 {
		t.Errorf("TABLE II cycle counts missing: %+v", row)
	}
}

// TestTable2Standalone measures goldens directly when no sweep ran.
func TestTable2Standalone(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs on both models in -short mode")
	}
	p := DefaultParams()
	p.Benches = []string{"qsort"}
	rows, avg, err := p.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Ratio <= 0 || avg != rows[0].Ratio {
		t.Errorf("rows = %+v, avg = %v", rows, avg)
	}
}

package repro

// Go benchmarks of single layers: the kernels' zero-allocation step
// (and what the lockstep hooks add to it), the reference interpreter and
// the assembler, the replay path's allocation profile, the shared
// lockstep walk, a miniature sweep, and the overhead of enabling
// metrics. Golden runs, restores, state digests and whole campaigns are
// measured by benchmark/'s per-layer and end-to-end metrics instead.

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/refsim"
	"repro/internal/trace"
)

func workloadProgram(b *testing.B, name string) *asm.Program {
	b.Helper()
	w, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// ------------------------------------------- simulator micro-benchmarks

// BenchmarkMicroarchStep is the microarch kernel at steady state: one op
// is one simulated cycle of qsort with the pinout capture attached, the
// simulator built outside the timer and rewound when the program ends.
// It pins the window's zero-allocation contract (0 allocs/op; what a
// run allocates for syscalls and first-touched pages is a few per ten
// thousand cycles).
func BenchmarkMicroarchStep(b *testing.B) { benchmarkStep(b, core.ModelMicroarch) }

// BenchmarkRTLStep is the same measurement one abstraction level down:
// the RTL core's clock edge plus whole-core evaluation, and its own
// zero-allocation contract (rtlcore.TestRTLStepDoesNotAllocate).
func BenchmarkRTLStep(b *testing.B) { benchmarkStep(b, core.ModelRTL) }

func benchmarkStep(b *testing.B, model core.Model) {
	benchmarkKernel(b, kernelSim(b, model), func(campaign.Simulator) {})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcyc/s")
}

// BenchmarkMicroarchLockstepStep is the golden step as the lockstep
// replay engine pays it: the same cycle with a lane tracker attached to
// the register file and to nothing dirty, so every hook runs and none
// finds work, plus the engine's per-tick BeginTick/Peeled pair. The
// difference to BenchmarkMicroarchStep is what riding lanes costs a
// cycle nobody is consumed in.
func BenchmarkMicroarchLockstepStep(b *testing.B) {
	benchmarkLockstepStep(b, core.ModelMicroarch, false)
}

// BenchmarkRTLLockstepStep is the same measurement on the RTL core,
// whose hooks sit in eval, the L1D's line traffic and the clock edge:
// the difference to BenchmarkRTLStep.
func BenchmarkRTLLockstepStep(b *testing.B) { benchmarkLockstepStep(b, core.ModelRTL, false) }

// BenchmarkMicroarchLockstepStepBoth is the golden step of a walk two
// campaigns share: a register-file and an L1D tracker attached side by
// side, nothing dirty in either. It must sit within noise of the
// one-tracker step — the second tracker is one more nil check that
// passes and one more mask word that reads zero.
func BenchmarkMicroarchLockstepStepBoth(b *testing.B) {
	benchmarkLockstepStep(b, core.ModelMicroarch, true)
}

// BenchmarkRTLLockstepStepBoth is the same measurement on the RTL core.
func BenchmarkRTLLockstepStepBoth(b *testing.B) { benchmarkLockstepStep(b, core.ModelRTL, true) }

func benchmarkLockstepStep(b *testing.B, model core.Model, both bool) {
	sim := kernelSim(b, model)
	host := sim.(campaign.BatchCapable)
	targets := []fault.Target{fault.TargetRF}
	if both {
		targets = append(targets, fault.TargetL1D)
	}
	trackers := host.AttachLanes(targets)
	defer host.DetachLanes()
	var peeled uint64
	benchmarkKernel(b, sim, func(campaign.Simulator) {
		for _, lanes := range trackers {
			peeled |= lanes.Peeled()
			lanes.BeginTick()
		}
	})
	if peeled != 0 {
		b.Fatal("a lane peeled with nothing dirty")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcyc/s")
}

// kernelSim builds the simulator the kernel benchmarks step: qsort under
// the campaign configuration, at cycle zero.
func kernelSim(b *testing.B, model core.Model) campaign.Simulator {
	sim, err := core.NewSimulator(model, workloadProgram(b, "qsort"), core.CampaignSetup())
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// benchmarkKernel steps sim one cycle per op at steady state — built
// outside the timer and rewound when the program ends — calling each
// after every cycle.
func benchmarkKernel(b *testing.B, sim campaign.Simulator, each func(campaign.Simulator)) {
	start := sim.Snapshot()
	pin := &trace.Pinout{}
	sim.SetPinout(pin)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sim.Step() {
			sim.Restore(start)
			pin.Reset()
			sim.SetPinout(pin)
		}
		each(sim)
	}
}

func BenchmarkReferenceInterpreter(b *testing.B) {
	p := workloadProgram(b, "qsort")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := refsim.New(p)
		if err != nil {
			b.Fatal(err)
		}
		if stop := cpu.Run(1 << 40); stop != refsim.StopExit {
			b.Fatal(stop)
		}
	}
}

func BenchmarkAssembler(b *testing.B) {
	w, err := bench.ByName("caes")
	if err != nil {
		b.Fatal(err)
	}
	src := w.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble("caes.s", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneRunReplayAllocs pins the allocation profile of the
// engine's hottest path: with per-worker buffer reuse (pinout capture,
// snapshot restore into existing storage, an allocation-free stepping
// kernel) a steady-state microarch replay must stay at a few dozen
// allocations — copy-on-write page clones and the outcome, not a
// re-cloned CPU or a uop per instruction.
func BenchmarkOneRunReplayAllocs(b *testing.B) {
	p := workloadProgram(b, "qsort")
	factory := core.Factory(core.ModelMicroarch, p, core.CampaignSetup())
	g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := factory()
	if err != nil {
		b.Fatal(err)
	}
	cfg := campaign.Config{
		Injections: 1, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
	specs, err := fault.Plan(64, cfg.Target, sim.Bits(cfg.Target), g.Cycles,
		fault.DistNormal, cfg.Fault, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	// Warm the reusable buffers to steady state before measuring.
	for _, s := range specs {
		if _, err := g.ReplayOne(sim, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ReplayOne(sim, specs[i%len(specs)], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedWalk is the lockstep engine on one goroutine with the
// two campaigns the paper runs over one benchmark — 1000 register-file
// and 1000 L1D transients on qsort, 500-cycle windows — dispatched as
// the pool dispatches them, one unit and one golden walk per pull
// (shared), against the same two campaigns handed to the pool one after
// the other, each walking the golden run on its own (apart). One op is a
// back-to-back pair alternating which arm runs first, on fresh plans
// over one prepared golden run; the arms' medians are reported in µs per
// fault with their ratio. Run with -benchtime 4x for four alternations.
func BenchmarkSharedWalk(b *testing.B) {
	for _, model := range []core.Model{core.ModelMicroarch, core.ModelRTL} {
		b.Run(model.String(), func(b *testing.B) {
			factory := core.Factory(model, workloadProgram(b, "qsort"), core.CampaignSetup())
			cfgs := []campaign.Config{
				{Injections: 1000, Seed: 1, Target: fault.TargetRF, Obs: campaign.ObsPinout, Window: 500},
				{Injections: 1000, Seed: 2, Target: fault.TargetL1D, Obs: campaign.ObsPinout, Window: 500},
			}
			g, err := campaign.PrepareGolden(factory, campaign.GoldenOptionsFor(cfgs[0]))
			if err != nil {
				b.Fatal(err)
			}
			const faults = 2000
			arms := [2][]float64{make([]float64, b.N), make([]float64, b.N)} // [shared, apart]
			b.ResetTimer()
			for r := 0; r < b.N; r++ {
				for k := 0; k < 2; k++ {
					arm := (r + k) % 2 // odd pairs run the apart arm first
					var work []*campaign.Work
					for _, cfg := range cfgs {
						p, err := g.PlanCampaign(cfg)
						if err != nil {
							b.Fatal(err)
						}
						work = append(work, &campaign.Work{
							Golden: g, Config: p.Config(), Factory: factory,
							Next: p.NextReplay, Deliver: p.Deliver, Size: cfg.Injections,
						})
					}
					runtime.GC()
					start := time.Now()
					if arm == 0 {
						err = campaign.ReplayPool(1, nil, work...)
					} else {
						for _, w := range work {
							if err == nil {
								err = campaign.ReplayPool(1, nil, w)
							}
						}
					}
					arms[arm][r] = time.Since(start).Seconds() * 1e6 / faults
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			shared, apart := median(arms[0]), median(arms[1])
			b.ReportMetric(shared, "shared-µs/fault")
			b.ReportMetric(apart, "apart-µs/fault")
			b.ReportMetric(apart/shared, "apart/shared")
		})
	}
}

// BenchmarkSweepWall measures the full-sweep wall time of a miniature
// two-campaign matrix sharing one golden run — the scheduler overhead
// trajectory (dispatch, checkpointless streaming, aggregation) rather
// than raw simulator speed.
func BenchmarkSweepWall(b *testing.B) {
	p := workloadProgram(b, "qsort")
	factory := core.Factory(core.ModelMicroarch, p, core.CampaignSetup())
	cfg := campaign.Config{
		Injections: 30, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
	l1d := cfg
	l1d.Target = fault.TargetL1D
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := campaign.Sweep([]campaign.SweepCampaign{
			{Key: "rf", Group: "ma/qsort", Factory: factory, Config: cfg},
			{Key: "l1d", Group: "ma/qsort", Factory: factory, Config: l1d},
		}, campaign.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if sr.GoldenRuns != 1 {
			b.Fatalf("golden runs = %d", sr.GoldenRuns)
		}
	}
}

// ------------------------------------------------- observability overhead

// BenchmarkObsOverhead measures what enabling the metrics registry costs
// the engine hot path, the one comparison benchmark/ does not make. One
// op is a back-to-back pair of the same campaign with observability off
// and on, alternating which arm runs first; overhead_frac is the enabled
// arm's fractional throughput loss at the geometric mean of two medians
// of the per-pair time ratios, one per arm order. A pair shares whatever
// the machine was doing that half second, so the ratio holds still where
// either arm's best time does not, and pairing the orders cancels what
// running second costs or saves (a warm cache, a GC the first arm left).
// The
// plan is sized so an arm runs ~0.2 s on the default (lockstep) engine,
// whose counters the enabled arm exercises: arms of tens of milliseconds
// cross 3% on noise alone. CI runs -benchtime 32x (even: both orders
// equally represented) and holds the column to 0.03 in a step of its own.
func BenchmarkObsOverhead(b *testing.B) {
	cfg := campaign.Config{
		Injections: 7680, Seed: 9, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
	arms := [2][]float64{make([]float64, b.N), make([]float64, b.N)} // [plain, enabled]
	for r := 0; r < b.N; r++ {
		for k := 0; k < 2; k++ {
			i := (r + k) % 2 // odd pairs run the enabled arm first
			if i == 1 {
				obs.Enable()
			}
			runtime.GC() // so neither arm pays for the other's garbage
			start := time.Now()
			_, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg)
			arms[i][r] = time.Since(start).Seconds()
			obs.Disable()
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(pairedOverhead(arms[0], arms[1]), "overhead_frac")
}

// pairedOverhead is the fractional throughput loss of the enabled arm,
// floored at zero, from the per-pair time ratios observed[i]/plain[i]:
// even pairs ran the plain arm first, odd pairs the enabled one, and the
// loss is taken at the geometric mean of the two orders' median ratios.
func pairedOverhead(plain, observed []float64) float64 {
	var orders [2][]float64
	for i := range plain {
		orders[i%2] = append(orders[i%2], observed[i]/plain[i])
	}
	gm := median(orders[0])
	if len(orders[1]) > 0 {
		gm = math.Sqrt(gm * median(orders[1]))
	}
	return math.Max(0, 1-1/gm)
}

func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// TestPairedOverhead: the overhead arm reports per-order medians of the
// per-pair ratios, so one pair caught by a scheduler hiccup — or one
// lucky plain run — does not move it, nor does a cost that only the arm
// running second pays, while a real slowdown in every pair does.
func TestPairedOverhead(t *testing.T) {
	plain := []float64{0.100, 0.102, 0.098, 0.101, 0.100, 0.099, 0.100}
	same := []float64{0.100, 0.102, 0.098, 0.101, 0.100, 0.099, 0.100}
	if got := pairedOverhead(plain, same); got != 0 {
		t.Errorf("identical arms: overhead %v, want 0", got)
	}
	hiccup := append([]float64(nil), same...)
	hiccup[2] = 0.150 // one enabled run preempted
	lucky := append([]float64(nil), plain...)
	lucky[3] = 0.080 // one plain run on a quiet core
	if got := pairedOverhead(lucky, hiccup); got > 0.001 {
		t.Errorf("two outlier pairs of seven: overhead %v, want ~0", got)
	}
	slower := make([]float64, len(plain))
	for i, p := range plain {
		slower[i] = p * 1.05
	}
	if got := pairedOverhead(plain, slower); got < 0.047 || got > 0.048 {
		t.Errorf("5%% slower in every pair: overhead %v, want 1-1/1.05", got)
	}
	if got := pairedOverhead(slower, plain); got != 0 {
		t.Errorf("enabled arm faster: overhead %v, want the floor 0", got)
	}
	second := append([]float64(nil), same...) // the enabled arm when it ran second
	first := append([]float64(nil), plain...) // the plain arm when it ran second
	for i := range plain {
		if i%2 == 0 {
			second[i] *= 1.04
		} else {
			first[i] *= 1.04
		}
	}
	if got := pairedOverhead(first, second); got > 1e-9 {
		t.Errorf("running second costs 4%%, whichever arm: overhead %v, want 0", got)
	}
}

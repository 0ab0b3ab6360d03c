package repro

// One benchmark per reproduced table and figure (EXPERIMENTS.md's experiment
// index E1-E13), plus throughput micro-benchmarks for the simulators
// themselves. Campaign benchmarks use miniature samples so `go test
// -bench=.` completes in minutes; cmd/paper runs the full versions.

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
	"repro/internal/stats"
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

// ------------------------------------------------------------------- E1

// BenchmarkTable1Config regenerates TABLE I (configuration rendering and
// validation; the content check lives in the core package tests).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		setup := core.DefaultSetup()
		if err := setup.Validate(); err != nil {
			b.Fatal(err)
		}
		if rows := core.TableI(setup); len(rows) != 7 {
			b.Fatalf("TABLE I has %d rows", len(rows))
		}
	}
}

// ------------------------------------------------------------------- E2

// goldenRun measures one full golden run (a TABLE II cell).
func goldenRun(b *testing.B, model core.Model, workload string) {
	b.Helper()
	p := workloadProgram(b, workload)
	setup := core.CampaignSetup()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(model, p, setup)
		if err != nil {
			b.Fatal(err)
		}
		sim.SetPinout(&trace.Pinout{})
		if stop := sim.Run(1 << 40); stop != refsim.StopExit && stop != refsim.StopHalt {
			b.Fatalf("stop = %v", stop)
		}
		cycles = sim.Cycles()
	}
	b.ReportMetric(float64(cycles)/1e6, "Mcycles/run")
}

func BenchmarkTable2_FFT_GeFIN(b *testing.B)   { goldenRun(b, core.ModelMicroarch, "fft") }
func BenchmarkTable2_FFT_RTL(b *testing.B)     { goldenRun(b, core.ModelRTL, "fft") }
func BenchmarkTable2_Qsort_GeFIN(b *testing.B) { goldenRun(b, core.ModelMicroarch, "qsort") }
func BenchmarkTable2_Qsort_RTL(b *testing.B)   { goldenRun(b, core.ModelRTL, "qsort") }
func BenchmarkTable2_CAES_GeFIN(b *testing.B)  { goldenRun(b, core.ModelMicroarch, "caes") }
func BenchmarkTable2_CAES_RTL(b *testing.B)    { goldenRun(b, core.ModelRTL, "caes") }
func BenchmarkTable2_SHA_GeFIN(b *testing.B)   { goldenRun(b, core.ModelMicroarch, "sha") }
func BenchmarkTable2_SHA_RTL(b *testing.B)     { goldenRun(b, core.ModelRTL, "sha") }
func BenchmarkTable2_Stringsearch_GeFIN(b *testing.B) {
	goldenRun(b, core.ModelMicroarch, "stringsearch")
}
func BenchmarkTable2_Stringsearch_RTL(b *testing.B) { goldenRun(b, core.ModelRTL, "stringsearch") }
func BenchmarkTable2_SusanC_GeFIN(b *testing.B)     { goldenRun(b, core.ModelMicroarch, "susan_c") }
func BenchmarkTable2_SusanC_RTL(b *testing.B)       { goldenRun(b, core.ModelRTL, "susan_c") }
func BenchmarkTable2_SusanE_GeFIN(b *testing.B)     { goldenRun(b, core.ModelMicroarch, "susan_e") }
func BenchmarkTable2_SusanE_RTL(b *testing.B)       { goldenRun(b, core.ModelRTL, "susan_e") }
func BenchmarkTable2_SusanS_GeFIN(b *testing.B)     { goldenRun(b, core.ModelMicroarch, "susan_s") }
func BenchmarkTable2_SusanS_RTL(b *testing.B)       { goldenRun(b, core.ModelRTL, "susan_s") }

// --------------------------------------------------------------- E3-E5

// miniCampaign runs a miniature of one figure's campaign cell and reports
// the unsafeness estimate as a metric.
func miniCampaign(b *testing.B, model core.Model, workload string, cfg campaign.Config) {
	b.Helper()
	b.ResetTimer()
	var unsafe float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunCampaign(workload, model, core.CampaignSetup(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		unsafe = res.Unsafeness.P
	}
	b.ReportMetric(unsafe, "unsafeness")
}

func fig1Cfg() campaign.Config {
	return campaign.Config{
		Injections: 20, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
}

func BenchmarkFig1_RF_GeFIN(b *testing.B) {
	miniCampaign(b, core.ModelMicroarch, "sha", fig1Cfg())
}

func BenchmarkFig1_RF_RTL(b *testing.B) {
	miniCampaign(b, core.ModelRTL, "sha", fig1Cfg())
}

func BenchmarkFig1_RF_GeFIN_NoTimer(b *testing.B) {
	cfg := fig1Cfg()
	cfg.Window = 0
	miniCampaign(b, core.ModelMicroarch, "sha", cfg)
}

func fig2Cfg() campaign.Config {
	return campaign.Config{
		Injections: 20, Seed: 1, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Window: 500,
	}
}

func BenchmarkFig2_L1D_GeFIN(b *testing.B) {
	miniCampaign(b, core.ModelMicroarch, "sha", fig2Cfg())
}

func BenchmarkFig2_L1D_RTL_Advanced(b *testing.B) {
	cfg := fig2Cfg()
	cfg.AdvanceToUse = true
	miniCampaign(b, core.ModelRTL, "sha", cfg)
}

func BenchmarkFig2_L1D_GeFIN_NoTimer(b *testing.B) {
	cfg := fig2Cfg()
	cfg.Window = 0
	miniCampaign(b, core.ModelMicroarch, "sha", cfg)
}

func fig3Cfg() campaign.Config {
	return campaign.Config{
		Injections: 10, Seed: 1, Target: fault.TargetL1D,
		Obs: campaign.ObsSOP,
	}
}

func BenchmarkFig3_SOP_GeFIN(b *testing.B) {
	miniCampaign(b, core.ModelMicroarch, "caes", fig3Cfg())
}

func BenchmarkFig3_SOP_RTL(b *testing.B) {
	miniCampaign(b, core.ModelRTL, "caes", fig3Cfg())
}

// ------------------------------------------------------------------- E6

func BenchmarkLeveugleSampleSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := stats.LeveugleSampleSize(0, 0.02, 0.99)
		if err != nil || n < 4000 {
			b.Fatalf("n = %d, err = %v", n, err)
		}
	}
}

// --------------------------------------------------------------- E7-E8

func BenchmarkAblationLatches_RTL(b *testing.B) {
	cfg := campaign.Config{
		Injections: 20, Seed: 1, Target: fault.TargetLatches,
		Obs: campaign.ObsPinout, Window: 500,
	}
	miniCampaign(b, core.ModelRTL, "sha", cfg)
}

func BenchmarkAblationWindow_GeFIN(b *testing.B) {
	cfg := fig2Cfg()
	cfg.Window = 2000
	miniCampaign(b, core.ModelMicroarch, "sha", cfg)
}

// ------------------------------------------------------------------- E9

// modelCfg is one fault-model ablation cell: register file, combined
// observation point, run to program end.
func modelCfg(prm fault.Params) campaign.Config {
	return campaign.Config{
		Injections: 10, Seed: 1, Target: fault.TargetRF,
		Fault: prm, Obs: campaign.ObsCombined,
	}
}

func BenchmarkAblationModels_Transient_GeFIN(b *testing.B) {
	miniCampaign(b, core.ModelMicroarch, "caes", modelCfg(fault.Params{Model: fault.ModelTransient}))
}

func BenchmarkAblationModels_Burst_GeFIN(b *testing.B) {
	miniCampaign(b, core.ModelMicroarch, "caes", modelCfg(fault.Params{Model: fault.ModelBurst}))
}

func BenchmarkAblationModels_StuckAt_GeFIN(b *testing.B) {
	miniCampaign(b, core.ModelMicroarch, "caes",
		modelCfg(fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom}))
}

func BenchmarkAblationModels_Intermittent_RTL(b *testing.B) {
	miniCampaign(b, core.ModelRTL, "caes",
		modelCfg(fault.Params{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom}))
}

// ------------------------------------------- simulator micro-benchmarks

func BenchmarkMicroarchCyclesPerSecond(b *testing.B) {
	p := workloadProgram(b, "qsort")
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(core.ModelMicroarch, p, core.CampaignSetup())
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(1 << 40)
		cycles += sim.Cycles()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcyc/s")
}

// BenchmarkMicroarchStep is the microarch kernel at steady state: one op
// is one simulated cycle of qsort with the pinout capture attached, the
// simulator built outside the timer and rewound when the program ends.
// It pins the window's zero-allocation contract (0 allocs/op; what a
// run allocates for syscalls and first-touched pages is a few per ten
// thousand cycles), next to BenchmarkMicroarchCyclesPerSecond, which
// pays for construction every run.
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

// BenchmarkMicroarchStateHash is one full state digest of the microarch
// model — the convergence exit takes one every 64 cycles of the golden
// run and of every early-stop replay. One op steps qsort a cycle, so the
// digested state moves through the whole program, and digests it;
// hash-ns/op is the digest alone, timed inside the op.
func BenchmarkMicroarchStateHash(b *testing.B) { benchmarkStateHash(b, core.ModelMicroarch) }

// BenchmarkRTLStateHash is the same measurement on the RTL core.
func BenchmarkRTLStateHash(b *testing.B) { benchmarkStateHash(b, core.ModelRTL) }

var hashSink uint64

func benchmarkStateHash(b *testing.B, model core.Model) {
	var hashing time.Duration
	benchmarkKernel(b, kernelSim(b, model), func(sim campaign.Simulator) {
		t0 := time.Now()
		hashSink = sim.StateHash()
		hashing += time.Since(t0)
	})
	b.ReportMetric(float64(hashing.Nanoseconds())/float64(b.N), "hash-ns/op")
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

func BenchmarkRTLCyclesPerSecond(b *testing.B) {
	p := workloadProgram(b, "qsort")
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(core.ModelRTL, p, core.CampaignSetup())
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(1 << 40)
		cycles += sim.Cycles()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcyc/s")
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

func BenchmarkSnapshotRestoreRTL(b *testing.B) {
	p := workloadProgram(b, "sha")
	sim, err := core.NewSimulator(core.ModelRTL, p, core.CampaignSetup())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		sim.Step()
	}
	snap := sim.Snapshot()
	b.ReportAllocs() // in-place restore: 0 allocs/op at steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Restore(snap)
	}
}

func BenchmarkCloneMicroarch(b *testing.B) {
	p := workloadProgram(b, "sha")
	sim, err := core.NewSimulator(core.ModelMicroarch, p, core.CampaignSetup())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		sim.Step()
	}
	snap := sim.Snapshot()
	b.ReportAllocs() // flat-copy restore into the worker's own storage: 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Restore(snap)
	}
}

// ------------------------------------------------- E10 + engine paths

// replayBench measures the engine's hottest path: one differential
// replay (snapshot restore, roll to the injection instant, fault, window
// simulation, classification) against a prepared golden run.
func replayBench(b *testing.B, model core.Model, cfg campaign.Config) {
	p := workloadProgram(b, "qsort")
	factory := core.Factory(model, p, core.CampaignSetup())
	opts := campaign.GoldenOptions{}
	if cfg.EarlyStop {
		opts.HashEvery = 64
	}
	g, err := campaign.PrepareGolden(factory, opts)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := factory()
	if err != nil {
		b.Fatal(err)
	}
	specs, err := fault.Plan(256, cfg.Target, sim.Bits(cfg.Target), g.Cycles,
		fault.DistNormal, cfg.Fault, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		oc, err := g.ReplayOne(sim, specs[i%len(specs)], cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles += oc.EndCycle - specs[i%len(specs)].Cycle
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "replays/s")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcyc/s")
}

func BenchmarkOneRunReplay_GeFIN(b *testing.B) {
	replayBench(b, core.ModelMicroarch, campaign.Config{
		Injections: 1, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	})
}

func BenchmarkOneRunReplay_RTL(b *testing.B) {
	replayBench(b, core.ModelRTL, campaign.Config{
		Injections: 1, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	})
}

func BenchmarkOneRunReplay_GeFIN_EarlyStop(b *testing.B) {
	replayBench(b, core.ModelMicroarch, campaign.Config{
		Injections: 1, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500, EarlyStop: true,
	})
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

// campaignCyclesBench reports the simulated replay cycles of one
// run-to-end campaign configuration — the quantity the adaptive engine
// exists to cut (compare the Fixed and Adaptive variants).
func campaignCyclesBench(b *testing.B, early bool) {
	cfg := campaign.Config{
		Injections: 40, Seed: 5, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, EarlyStop: early,
	}
	b.ResetTimer()
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.RunCampaign("caes", core.ModelMicroarch, core.CampaignSetup(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CyclesSimulated)/1e6, "Mcycles/campaign")
	b.ReportMetric(float64(res.ConvergedRuns), "converged")
}

func BenchmarkCampaignRunToEnd_Fixed(b *testing.B)    { campaignCyclesBench(b, false) }
func BenchmarkCampaignRunToEnd_Adaptive(b *testing.B) { campaignCyclesBench(b, true) }

// goldenPhaseBench measures one golden-artifact phase; the Lifetime
// variant quantifies the recording overhead of the pruning trace
// (target: within ~10% of the plain golden run).
func goldenPhaseBench(b *testing.B, life bool) {
	p := workloadProgram(b, "qsort")
	factory := core.Factory(core.ModelMicroarch, p, core.CampaignSetup())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{Lifetime: life}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGoldenPlain(b *testing.B)        { goldenPhaseBench(b, false) }
func BenchmarkGoldenWithLifetime(b *testing.B) { goldenPhaseBench(b, true) }

// ------------------------------------------------- E11 + pruning paths

// campaignPruneBench reports the simulated replay cycles of one
// run-to-end L1D campaign under a pruning mode — the quantity
// golden-trace pruning exists to cut (compare Full, Dead, Classes).
func campaignPruneBench(b *testing.B, mode campaign.PruneMode) {
	cfg := campaign.Config{
		Injections: 40, Seed: 5, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Prune: mode,
	}
	b.ResetTimer()
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.RunCampaign("caes", core.ModelMicroarch, core.CampaignSetup(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CyclesSimulated)/1e6, "Mcycles/campaign")
	b.ReportMetric(float64(res.PrunedRuns+res.ExtrapolatedRuns), "pruned")
}

func BenchmarkCampaignPrune_Full(b *testing.B)    { campaignPruneBench(b, campaign.PruneOff) }
func BenchmarkCampaignPrune_Dead(b *testing.B)    { campaignPruneBench(b, campaign.PruneDead) }
func BenchmarkCampaignPrune_Classes(b *testing.B) { campaignPruneBench(b, campaign.PruneClasses) }

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

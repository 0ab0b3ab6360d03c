package core

import (
	"flag"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/refsim"
)

// valueLaneMatrix is one golden group of value-lane campaigns over both
// targets: every fault model windowed, and run to the end under the
// combined observation point with the convergence exit.
func valueLaneMatrix(m Model, seed int64, window uint64, n int) []oracleCamp {
	var camps []oracleCamp
	add := func(cfg campaign.Config) {
		cfg.Seed = seed + int64(len(camps))
		camps = append(camps, oracleCamp{m, cfg})
	}
	for _, tg := range []fault.Target{fault.TargetRF, fault.TargetL1D} {
		for _, fm := range faultModels {
			add(campaign.Config{Injections: n, Target: tg, Fault: fm.fault, Window: window})
			add(campaign.Config{
				Injections: max(1, n/4), Target: tg, Fault: fm.fault,
				Obs: campaign.ObsCombined, EarlyStop: true,
			})
		}
	}
	return camps
}

// slowBenches are the workloads whose golden runs are longest: tier-1
// holds them to the scalar engine on windowed campaigns and tracks their
// lanes cycle by cycle; FuzzValueLanes adds their run-to-end campaigns
// when fuzzing.
var slowBenches = []string{"susan_c", "susan_e", "susan_s", "stringsearch"}

// TestValueLanesMatchScalar is the value-lane engine's equivalence matrix
// on the benches: a fused unit of register-file and L1D campaigns over
// every fault model, windowed and run to the end, on a pool of one or two
// goroutines (alternating by bench), must match the scalar oracle, and
// lanesTrackScalar holds each bench's lanes — on the RTL model its
// pipeline-latch lanes too — to scalar machines digest for digest, cycle
// by cycle. The microarchitectural model runs all eight
// benches (the slow ones' run-to-end campaigns only under -fuzz); the
// RTL model, twice as slow a cycle, the three that span its traffic
// (pinout-heavy qsort and fft, quiet caes) — FuzzValueLanes carries
// both over generated programs.
func TestValueLanesMatchScalar(t *testing.T) {
	for i, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			valueLanesMatchScalar(t, ModelMicroarch, w.Name, 1+i%2)
		})
	}
	for i, name := range []string{"qsort", "fft", "caes"} {
		t.Run("rtl/"+name, func(t *testing.T) {
			t.Parallel()
			valueLanesMatchScalar(t, ModelRTL, name, 1+i%2)
		})
	}
}

func valueLanesMatchScalar(t *testing.T, m Model, name string, workers int) {
	n := 8
	if testing.Short() {
		n = 4
	}
	camps := valueLaneMatrix(m, 31, 500, n)
	if slices.Contains(slowBenches, name) {
		camps = slices.DeleteFunc(camps, runsToEnd)
	}
	checkOracle(t, oracleCase{bench: name, camps: camps, workers: workers, expect: expRides})
	f := benchFactory(t, m, name)
	lanesTrackScalar(t, f, trackedSpecs(t, f, 41, 2*n, fault.TargetRF, fault.TargetL1D), 300)
	if m == ModelRTL {
		lanesTrackScalar(t, f, trackedSpecs(t, f, 43, 4*n, fault.TargetLatches), 300)
	}
}

func runsToEnd(c oracleCamp) bool { return c.cfg.Window == 0 }

// valueLaneProgram is a generated program for FuzzValueLanes:
// randomProgram's blocks, ending with a write syscall of the scratch
// buffer's first bytes when shape asks, so corrupted memory reaches the
// output through the L1D view.
func valueLaneProgram(seed int64, shape uint8) string {
	src := randomProgram(rand.New(rand.NewSource(seed)))
	if shape&1 != 0 {
		const exit = "\tmovi\tr7, #1\n\tsvc\t#0\n"
		src = strings.Replace(src, exit, "\tli\tr0, buf\n\tmovi\tr1, #48\n\tmovi\tr7, #2\n\tsvc\t#0\n"+exit, 1)
	}
	return src
}

// FuzzValueLanes holds the engines to the scalar oracle over generated
// programs, on both models. Per program and model: register-file and L1D
// faults of all four fault models, windowed and run to the end, as one
// fused unit with a seven-lane member that has to defer, and on the RTL
// model a pipeline-latch campaign of a fault model shape picks (shape
// also picks the window, the sample size and whether the program writes
// its buffer to the output); every transient lane tracked against its scalar machine
// to the program's end (lanesTrackScalar); and one random point of the
// harness's cross-product (drawCase). Under -fuzz each input also runs
// one of the slow benches, picked by seed, as tier-1 does not: the
// run-to-end campaigns of its valueLaneMatrix, its lanes tracked, and a
// drawn case, all sampled by the input's seed.
func FuzzValueLanes(f *testing.F) {
	for _, c := range []struct {
		seed  int64
		shape uint8
	}{{1, 0}, {2, 3}, {3, 0x15}, {7, 0x2e}} {
		f.Add(c.seed, c.shape)
	}
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		prog, err := asm.Assemble("fuzz.s", valueLaneProgram(seed, shape))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed<<8 | int64(shape)))
		for _, m := range []Model{ModelMicroarch, ModelRTL} {
			t.Run(m.String(), func(t *testing.T) {
				window := 100 + 60*uint64(shape>>1&7)
				camps := append(valueLaneMatrix(m, seed, window, 4+int(shape>>4&3)*2), oracleCamp{m, campaign.Config{
					Injections: 24, Seed: seed, Target: fault.TargetRF, Window: 4 * window, Lanes: 7,
				}})
				if m == ModelRTL {
					camps = append(camps, oracleCamp{m, campaign.Config{
						Injections: 16, Seed: seed, Target: fault.TargetLatches, Window: window,
						Fault: faultModels[int(shape)%len(faultModels)].fault,
					}})
				}
				checkOracle(t, oracleCase{prog: prog, camps: camps, workers: 1, expect: expRides})
				fac := Factory(m, prog, CampaignSetup())
				lanesTrackScalar(t, fac, trackedSpecs(t, fac, seed, 32, fault.TargetRF, fault.TargetL1D), 0)
				if m == ModelRTL {
					lanesTrackScalar(t, fac, trackedSpecs(t, fac, seed, 32, fault.TargetLatches), 0)
				}
				c := drawCase(rng, m, 12)
				c.prog = prog
				checkOracle(t, c)
			})
		}
		if fuzzing {
			t.Run("bench", func(t *testing.T) {
				name := slowBenches[uint64(seed)%uint64(len(slowBenches))]
				camps := slices.DeleteFunc(valueLaneMatrix(ModelMicroarch, seed, 500, 4), func(c oracleCamp) bool { return !runsToEnd(c) })
				checkOracle(t, oracleCase{bench: name, camps: camps, workers: 1 + int(shape&1), expect: expRides})
				fac := benchFactory(t, ModelMicroarch, name)
				lanesTrackScalar(t, fac, trackedSpecs(t, fac, seed, 8, fault.TargetRF, fault.TargetL1D), 300)
				c := drawCase(rng, ModelMicroarch, 6)
				c.bench = name
				checkOracle(t, c)
			})
		}
	})
}

// lanesTrackScalar is the value-lane invariant checked cycle by cycle:
// on one golden instance carrying a lane per spec (transient models
// only), a riding lane's machine — golden's state with the lane's diff
// applied — digests exactly like a scalar instance that took the same
// fault, at every cycle from the injection until the lane peels or
// horizon cycles pass (0: the program's end); and a lane peeled during a
// step is rebuilt, undo journal applied, as the scalar machine stood
// before that step. specs must be cycle-sorted, at most 64 per target
// and over at most two targets.
func lanesTrackScalar(t *testing.T, f campaign.Factory, specs []fault.Spec, horizon uint64) {
	t.Helper()
	newSim := func() campaign.Simulator {
		s, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var targets []fault.Target
	for _, sp := range specs {
		if !slices.Contains(targets, sp.Target) {
			targets = append(targets, sp.Target)
		}
	}
	gold := newSim()
	host := gold.(campaign.BatchCapable)
	sets := host.AttachLanes(targets)
	defer host.DetachLanes()
	group := func(tg fault.Target) campaign.LaneSet { return sets[slices.Index(targets, tg)] }
	type rider struct {
		spec      fault.Spec
		lane      int
		sim, view campaign.Simulator
		until     uint64
	}
	var riding []*rider
	var pre campaign.Snapshot
	used := map[fault.Target]int{}
	next := 0
	for gold.StopReason() == refsim.StopNone && (next < len(specs) || len(riding) > 0) {
		c := gold.Cycles()
		pre = host.SnapshotInto(pre)
		for ; next < len(specs) && specs[next].Cycle == c; next++ {
			sp := specs[next]
			r := &rider{spec: sp, lane: used[sp.Target], sim: newSim(), view: newSim(), until: ^uint64(0)}
			r.sim.Restore(pre)
			if horizon > 0 {
				r.until = c + horizon
			}
			used[sp.Target]++
			lo, hi := sp.BitSpan()
			for b := lo; b < hi; b++ {
				if err := r.sim.Flip(sp.Target, b); err != nil {
					t.Fatal(err)
				}
				if err := group(sp.Target).Flip(r.lane, b); err != nil {
					t.Fatal(err)
				}
			}
			riding = append(riding, r)
		}
		for _, lanes := range sets {
			lanes.BeginTick()
		}
		preHash := make([]uint64, len(riding))
		for i, r := range riding {
			r.view.Restore(pre)
			if err := group(r.spec.Target).Rebuild(r.lane, r.view); err != nil {
				t.Fatal(err)
			}
			preHash[i] = r.sim.StateHash()
			if got := r.view.StateHash(); got != preHash[i] {
				t.Fatalf("%+v: at cycle %d the lane's machine digests %#x, the scalar one %#x", r.spec, c, got, preHash[i])
			}
		}
		gold.Step()
		kept := riding[:0]
		for i, r := range riding {
			g := group(r.spec.Target)
			if g.Peeled()>>r.lane&1 != 0 {
				r.view.Restore(pre)
				if err := g.Rebuild(r.lane, r.view); err != nil {
					t.Fatal(err)
				}
				if got := r.view.StateHash(); got != preHash[i] {
					t.Fatalf("%+v: peeled in the step from %d, rebuilt as %#x, the scalar machine was %#x", r.spec, c, got, preHash[i])
				}
				g.Retire(r.lane)
				continue
			}
			if r.sim.Step(); gold.Cycles() >= r.until {
				g.Retire(r.lane)
				continue
			}
			kept = append(kept, r)
		}
		riding = kept
	}
}

// trackedSpecs plans n faults per target on a program's golden run,
// transient on the first target and burst on the second, cycle-sorted.
func trackedSpecs(t *testing.T, f campaign.Factory, seed int64, n int, targets ...fault.Target) []fault.Spec {
	t.Helper()
	g, err := campaign.PrepareGolden(f, campaign.GoldenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var specs []fault.Spec
	for i, tg := range targets {
		s, err := g.Plan(campaign.Config{Injections: n, Seed: seed + int64(i), Target: tg, Fault: faultModels[i].fault})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s...)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Cycle < specs[j].Cycle })
	return specs
}

package campaign_test

import (
	"math/rand"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// accessSim is a mockSim with an L1D of sets×ways lines of lineBits
// bits, line-major like both models' L1D bit spaces, whose golden run
// performs a scripted list of line accesses and reports each through
// the L1D access hook, as a real model does.
type accessSim struct {
	*mockSim
	sets, ways, lineBits int
	script               map[uint64][][2]int // cycle → (set, way) accesses, in order
	hook                 func(set, way int)
}

func (s *accessSim) Step() bool {
	if s.hook != nil {
		for _, a := range s.script[s.cycles] {
			s.hook(a[0], a[1])
		}
	}
	return s.mockSim.Step()
}

func (s *accessSim) Bits(fault.Target) int                  { return s.sets * s.ways * s.lineBits }
func (s *accessSim) SetL1DAccessHook(fn func(set, way int)) { s.hook = fn }
func (s *accessSim) L1DLineOfBit(bit int) (int, int) {
	line := bit / s.lineBits
	return line / s.ways, line % s.ways
}

// refAdvance is advancement's rule as a plain map and scan: the faulted
// line's accesses in order, the first one strictly after the sampled
// instant, less one.
func refAdvance(spec fault.Spec, timeline map[[2]int][]uint64, set, way int) uint64 {
	for _, c := range timeline[[2]int{set, way}] {
		if c > spec.Cycle {
			return c - 1
		}
	}
	return spec.Cycle
}

// TestAdvanceMatchesLinearScan holds injection-time advancement on the
// golden run's L1D timeline to the map-and-scan reference, over
// generated access lists that include repeated cycles, a line never
// accessed again, a line never accessed at all and accesses at the
// sampled injection cycle itself.
func TestAdvanceMatchesLinearScan(t *testing.T) {
	const sets, ways, lineBits, cycles = 4, 2, 8, 3000
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make(map[uint64][][2]int)
		ref := make(map[[2]int][]uint64)
		access := func(c uint64, set, way int) {
			script[c] = append(script[c], [2]int{set, way})
			ref[[2]int{set, way}] = append(ref[[2]int{set, way}], c)
		}
		for c := uint64(0); c < cycles; c++ {
			access(c, 0, 0) // every cycle: each sampled instant is an access
			if rng.Intn(4) == 0 {
				access(c, 0, 0) // the same cycle again
			}
			if c < 100 {
				access(c, 0, 1) // never accessed after cycle 99
			}
			// Line (1,0) is never accessed; the rest at random.
			for line := 3; line < sets*ways; line++ {
				if rng.Intn(40) == 0 {
					access(c, line/ways, line%ways)
					if rng.Intn(2) == 0 {
						access(c, line/ways, line%ways)
					}
				}
			}
		}
		sim := &accessSim{mockSim: &mockSim{limit: cycles}, sets: sets, ways: ways, lineBits: lineBits, script: script}
		g, err := campaign.PrepareGolden(func() (campaign.Simulator, error) { return sim, nil },
			campaign.GoldenOptions{Timeline: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := campaign.Config{
			Injections: 2000, Seed: seed, Target: fault.TargetL1D,
			Obs: campaign.ObsPinout, Window: 100,
		}
		sampled, err := g.Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.AdvanceToUse = true
		moved, err := g.Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		atInstant, neverAgain := 0, 0
		for i, s := range sampled {
			set, way := sim.L1DLineOfBit(s.Bit)
			want := refAdvance(s, ref, set, way)
			if moved[i].Cycle != want {
				t.Fatalf("seed %d fault %d (line %d/%d, sampled @%d): advanced to %d, linear scan says %d",
					seed, i, set, way, s.Cycle, moved[i].Cycle, want)
			}
			if want == s.Cycle {
				neverAgain++
			}
			for _, a := range script[s.Cycle] {
				if a == [2]int{set, way} {
					atInstant++
					break
				}
			}
		}
		if atInstant == 0 || neverAgain == 0 {
			t.Fatalf("seed %d: the plan missed a case (%d faults on a line accessed at their instant, %d never accessed again)",
				seed, atInstant, neverAgain)
		}
	}
}

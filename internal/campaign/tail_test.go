package campaign

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/lifetime"
	"repro/internal/refsim"
	"repro/internal/trace"
)

// tailSim is a scripted faulty machine for runTail: it emits the
// transactions of txns at their cycles, reports golden's digest (its
// cycle count) as its state, counts the digests folded and records the
// cycle at which its own Run took over the tail.
type tailSim struct {
	cycles  uint64
	txns    []trace.Transaction
	pin     *trace.Pinout
	folds   int
	runFrom uint64
}

func (s *tailSim) Step() bool {
	s.cycles++
	for len(s.txns) > 0 && s.txns[0].Cycle == s.cycles {
		s.pin.Txns = append(s.pin.Txns, s.txns[0])
		s.txns = s.txns[1:]
	}
	return true
}

func (s *tailSim) Run(max uint64) refsim.StopReason {
	s.runFrom = s.cycles
	for s.cycles < max {
		s.Step()
	}
	return refsim.StopLimit
}

func (s *tailSim) StateHash() uint64 {
	s.folds++
	return s.cycles
}

func (s *tailSim) Cycles() uint64                     { return s.cycles }
func (s *tailSim) StopReason() refsim.StopReason      { return refsim.StopNone }
func (s *tailSim) Output() []byte                     { return nil }
func (s *tailSim) SetPinout(p *trace.Pinout)          { s.pin = p }
func (s *tailSim) Bits(fault.Target) int              { return 32 }
func (s *tailSim) Flip(fault.Target, int) error       { return nil }
func (s *tailSim) Force(fault.Target, int, int) error { return nil }
func (s *tailSim) Snapshot() Snapshot                 { return nil }
func (s *tailSim) Restore(Snapshot)                   {}
func (s *tailSim) SetL1DAccessHook(func(int, int))    {}
func (s *tailSim) L1DLineOfBit(int) (int, int)        { return 0, 0 }
func (s *tailSim) SetLifetime(*lifetime.Recorder)     {}

// TestRunTailSealsOnFinalMismatch drives runTail's convergence checks
// over a golden run with transactions at cycles 5, 15 and 25 and hash
// points every 10 cycles. A late first transaction is a count mismatch
// at cycle 10 that heals by 20, where the tail must still converge; a
// corrupted one is final at 10, where the tail must stop checking and
// hand the rest to Run. No digest is folded where the pinout differs.
func TestRunTailSealsOnFinalMismatch(t *testing.T) {
	tx := func(cycle uint64, d uint64) trace.Transaction {
		return trace.Transaction{Cycle: cycle, Addr: 0x100, Kind: trace.KindWriteback, Digest: d}
	}
	g := &Golden{
		pin:    &trace.Pinout{Txns: []trace.Transaction{tx(5, 1), tx(15, 2), tx(25, 3)}},
		hashes: []hashAt{{10, 10}, {20, 20}, {30, 30}, {40, 40}},
	}
	for _, tc := range []struct {
		name      string
		txns      []trace.Transaction
		converged bool
		end       uint64 // cycle of the exit, or at which Run took over
		folds     int
	}{
		{"late", []trace.Transaction{tx(12, 1), tx(15, 2), tx(25, 3)}, true, 20, 1},
		{"corrupt", []trace.Transaction{tx(5, 9), tx(15, 2), tx(25, 3)}, false, 10, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := &tailSim{txns: tc.txns}
			pin := &trace.Pinout{}
			sim.SetPinout(pin)
			// A 98-cycle window from the injection at 2 puts the limit at 100.
			cfg := Config{EarlyStop: true, CompareMode: trace.CompareContent, Window: 98}
			_, converged, err := runTail(sim, g, fault.Spec{Cycle: 2}, cfg, 0, pin)
			if err != nil {
				t.Fatal(err)
			}
			end := sim.runFrom
			if converged {
				end = sim.cycles
			}
			if converged != tc.converged || end != tc.end || sim.folds != tc.folds {
				t.Errorf("converged %v at %d with %d digests folded, want %v at %d with %d",
					converged, end, sim.folds, tc.converged, tc.end, tc.folds)
			}
		})
	}
}

package main

import (
	"strings"
	"testing"
)

// probe runs `runsim -inject 4` on RTL caes and returns its output.
func probe(t *testing.T, target, lanes string) string {
	t.Helper()
	var out strings.Builder
	args := []string{"-bench", "caes", "-model", "rtl", "-inject", "4", "-target", target, "-lanes", lanes}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// bitLines keeps the per-fault lines, the part of a probe's output that
// must not depend on the engine.
func bitLines(out string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "bit=") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

// TestProbeEngineSummary: at -lanes 8 both the RTL pipeline latches and
// the register file ride lanes, and the probe gets the lane line and the
// peels by reason (the latch faults outside the value planes peel as
// "fault"), with no NaN anywhere. Either way the per-fault lines equal
// the scalar probe's.
func TestProbeEngineSummary(t *testing.T) {
	for _, tc := range []struct {
		target string
		want   []string
	}{
		{"latches", []string{"1 retired in lockstep, 3 peeled to scalar", "peels by reason: fault 3"}},
		{"rf", []string{"mean lane occupancy"}},
	} {
		t.Run(tc.target, func(t *testing.T) {
			walk := probe(t, tc.target, "8")
			for _, want := range tc.want {
				if !strings.Contains(walk, want) || strings.Contains(walk, "NaN") {
					t.Errorf("-lanes 8 output should say %q and no NaN:\n%s", want, walk)
				}
			}
			if got, want := bitLines(walk), bitLines(probe(t, tc.target, "1")); got != want {
				t.Errorf("-lanes 8 per-fault lines differ from -lanes 1:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

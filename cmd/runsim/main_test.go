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

// TestProbeEngineSummary: RTL pipeline latches have no lane geometry, so
// at -lanes 8 every replay forks off the golden walk and the probe says
// so, where a lane line would read zeros and a NaN occupancy; the
// register file rides lanes and gets the lane line. Either way the
// per-fault lines equal the scalar probe's.
func TestProbeEngineSummary(t *testing.T) {
	for _, tc := range []struct{ target, want, not string }{
		{"latches", "4 replays forked off the golden walk", "lane occupancy"},
		{"rf", "mean lane occupancy", "forked"},
	} {
		t.Run(tc.target, func(t *testing.T) {
			walk := probe(t, tc.target, "8")
			if !strings.Contains(walk, tc.want) || strings.Contains(walk, tc.not) || strings.Contains(walk, "NaN") {
				t.Errorf("-lanes 8 output should say %q and not %q or NaN:\n%s", tc.want, tc.not, walk)
			}
			if got, want := bitLines(walk), bitLines(probe(t, tc.target, "1")); got != want {
				t.Errorf("-lanes 8 per-fault lines differ from -lanes 1:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

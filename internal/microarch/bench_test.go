package microarch

import (
	"testing"

	"repro/internal/trace"
)

// BenchmarkStep is the kernel's cost per simulated cycle under
// CampaignConfig: one op is one cycle of qsort, caes, fft and sha in
// turn, each program rewound to its cycle-0 snapshot (RestoreFrom) when
// it ends and the next one stepped, so any b.N past their 101 227
// cycles covers all four. Every CPU is built outside the timer with the
// pinout capture attached, as a golden run has it. The steady state
// allocates nothing: what a run allocates for syscall output and
// first-touched pages rounds to 0 allocs/op.
func BenchmarkStep(b *testing.B) {
	names := []string{"qsort", "caes", "fft", "sha"}
	cpus := make([]*CPU, len(names))
	starts := make([]*CPU, len(names))
	pin := &trace.Pinout{}
	for i, name := range names {
		c := campaignCPU(b, benchProgram(b, name))
		starts[i] = c.Clone()
		cpus[i] = c
	}
	k := 0
	cpus[k].Pinout = pin
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cpus[k].Step() {
			continue
		}
		cpus[k].RestoreFrom(starts[k])
		k = (k + 1) % len(cpus)
		pin.Reset()
		cpus[k].Pinout = pin
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
}

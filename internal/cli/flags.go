package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/internal/prof"
)

// FaultFlags declares the fault-model flag group (-fault-model, -burst,
// -span) on fs and returns the function that, after fs.Parse, resolves
// it into the fault model to inject. modelNote and paramNote qualify
// the help text where a binary applies the group to only part of what
// it does (paper: " injected by figures"; runsim: " with -inject" on
// all three); pass "" for none.
func FaultFlags(fs *flag.FlagSet, modelNote, paramNote string) func() (fault.Params, error) {
	model := fs.String("fault-model", "transient", "fault model"+modelNote+": transient, burst, stuck-at, stuck-at-0, stuck-at-1, intermittent")
	burst := fs.Int("burst", 0, "adjacent bits per burst injection"+paramNote+" (default 2)")
	span := fs.Uint64("span", 0, "intermittent active window in cycles"+paramNote+" (default goldenCycles/16)")
	return func() (fault.Params, error) {
		fp, err := fault.ParseParams(*model)
		fp.Burst, fp.Span = *burst, *span
		return fp, err
	}
}

// ProcessFlags declares the per-process preamble group (-cpuprofile,
// -memprofile, -metrics, -metrics-dump, -version) on fs for the binary
// called name; activity is what the help text says is being profiled
// ("regeneration", "campaign"). The returned function acts on the
// parsed group: exit reports that -version was given and printed, so
// the caller should return; otherwise profiling and metrics are running
// and the caller defers stop, which dumps the metrics and then writes
// the profiles.
func ProcessFlags(fs *flag.FlagSet, name, activity string) func() (stop func(), exit bool, err error) {
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the "+activity+" to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	var metrics MetricsFlags
	fs.StringVar(&metrics.Addr, "metrics", "", "serve /metrics (Prometheus text) and /debug/pprof on this address while the "+activity+" runs")
	fs.BoolVar(&metrics.Dump, "metrics-dump", false, "dump the final metric values to stderr at exit (Prometheus text)")
	version := fs.Bool("version", false, "print version and exit")
	return func() (func(), bool, error) {
		if *version {
			PrintVersion(name)
			return nil, true, nil
		}
		stopProf, err := prof.Start(*cpuprofile, *memprofile)
		if err != nil {
			return nil, false, err
		}
		finishProf := func() {
			if perr := stopProf(); perr != nil {
				fmt.Fprintf(os.Stderr, "%s: profile: %v\n", name, perr)
			}
		}
		stopMetrics, err := metrics.Start(name)
		if err != nil {
			finishProf()
			return nil, false, err
		}
		return func() { stopMetrics(); finishProf() }, false, nil
	}
}

package cli

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/fault"
)

// helpOf renders what `-h` prints for the flags declare registers.
func helpOf(declare func(fs *flag.FlagSet)) string {
	var sb strings.Builder
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&sb)
	declare(fs)
	fs.PrintDefaults()
	return sb.String()
}

// TestSharedFlagHelpUnchanged holds the shared groups to the `-h` text
// paper, faultsim and runsim printed when each declared these flags
// itself: same names, defaults and wording, per-binary notes included.
func TestSharedFlagHelpUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name    string
		declare func(fs *flag.FlagSet)
		want    string
	}{
		{"paper", func(fs *flag.FlagSet) {
			FaultFlags(fs, " injected by figures", "")
			ProcessFlags(fs, "paper", "regeneration")
		}, `  -burst int
    	adjacent bits per burst injection (default 2)
  -cpuprofile string
    	write a CPU profile of the regeneration to this file
  -fault-model string
    	fault model injected by figures: transient, burst, stuck-at, stuck-at-0, stuck-at-1, intermittent (default "transient")
  -memprofile string
    	write a heap profile at exit to this file
  -metrics string
    	serve /metrics (Prometheus text) and /debug/pprof on this address while the regeneration runs
  -metrics-dump
    	dump the final metric values to stderr at exit (Prometheus text)
  -span uint
    	intermittent active window in cycles (default goldenCycles/16)
  -version
    	print version and exit
`},
		{"faultsim", func(fs *flag.FlagSet) {
			FaultFlags(fs, "", "")
			ProcessFlags(fs, "faultsim", "campaign")
		}, `  -burst int
    	adjacent bits per burst injection (default 2)
  -cpuprofile string
    	write a CPU profile of the campaign to this file
  -fault-model string
    	fault model: transient, burst, stuck-at, stuck-at-0, stuck-at-1, intermittent (default "transient")
  -memprofile string
    	write a heap profile at exit to this file
  -metrics string
    	serve /metrics (Prometheus text) and /debug/pprof on this address while the campaign runs
  -metrics-dump
    	dump the final metric values to stderr at exit (Prometheus text)
  -span uint
    	intermittent active window in cycles (default goldenCycles/16)
  -version
    	print version and exit
`},
		{"runsim", func(fs *flag.FlagSet) {
			FaultFlags(fs, " with -inject", " with -inject")
		}, `  -burst int
    	adjacent bits per burst injection with -inject (default 2)
  -fault-model string
    	fault model with -inject: transient, burst, stuck-at, stuck-at-0, stuck-at-1, intermittent (default "transient")
  -span uint
    	intermittent active window in cycles with -inject (default goldenCycles/16)
`},
	} {
		if got := helpOf(tc.declare); got != tc.want {
			t.Errorf("%s: shared flag help changed:\n got:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestFaultFlagsParams: the parsed group resolves to the fault model the
// three binaries used to assemble by hand.
func TestFaultFlagsParams(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ff := FaultFlags(fs, "", "")
	if err := fs.Parse([]string{"-fault-model", "stuck-at-1", "-burst", "3", "-span", "40"}); err != nil {
		t.Fatal(err)
	}
	got, err := ff()
	if err != nil {
		t.Fatal(err)
	}
	if want := (fault.Params{Model: fault.ModelStuckAt, Stuck: 1, Burst: 3, Span: 40}); got != want {
		t.Errorf("Params() = %+v, want %+v", got, want)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	ff = FaultFlags(fs, "", "")
	if err := fs.Parse([]string{"-fault-model", "nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ff(); err == nil {
		t.Error("unknown fault model accepted")
	}
}

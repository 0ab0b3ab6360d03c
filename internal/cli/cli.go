// Package cli holds the plumbing every cmd/ binary shares: the
// -version implementation (module version + VCS revision from the
// embedded build info), graceful-interrupt wiring (first
// SIGINT/SIGTERM requests a clean stop so checkpoints flush; a second
// kills the process), and the flag groups more than one binary declares
// (FaultFlags, ProcessFlags, MetricsFlags) so their names, defaults and
// help text exist once.
package cli

import (
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
)

// Version returns a human-readable build identity: the module version
// (or "devel"), the VCS revision/timestamp when the build embeds them,
// and the Go toolchain.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown (built without module support)"
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	var rev, at string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.time":
			at = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	var sb strings.Builder
	sb.WriteString(ver)
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&sb, " rev %s", rev)
		if dirty {
			sb.WriteString("+dirty")
		}
	}
	if at != "" {
		fmt.Fprintf(&sb, " (%s)", at)
	}
	fmt.Fprintf(&sb, " %s", bi.GoVersion)
	return sb.String()
}

// PrintVersion writes "<name> <version>" to stdout — the shared
// -version flag implementation.
func PrintVersion(name string) {
	fmt.Printf("%s %s\n", name, Version())
}

// StopOnSignal returns a channel closed on the first SIGINT/SIGTERM —
// wire it to campaign.SweepOptions.Stop (or a server shutdown) so
// in-flight work drains and checkpoint shards flush before exit. A
// second signal kills the process immediately with status 130.
func StopOnSignal(name string) <-chan struct{} {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-ch
		fmt.Fprintf(os.Stderr,
			"%s: interrupt: draining in-flight work and flushing checkpoints (interrupt again to kill)\n", name)
		close(stop)
		<-ch
		os.Exit(130)
	}()
	return stop
}

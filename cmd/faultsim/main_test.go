package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/distrib"
)

// startFleet serves an in-process coordinator with one worker and
// returns its base URL.
func startFleet(t *testing.T) string {
	t.Helper()
	coord := distrib.NewCoordinator(distrib.CoordinatorOptions{
		LeaseTTL: time.Second, ShardSize: 16, Logf: t.Logf,
	})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := coord.Close(); err != nil {
			t.Errorf("coordinator close: %v", err)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	w := distrib.NewWorker(distrib.WorkerOptions{
		Coordinator: srv.URL, ID: "w1", Workers: 2, Poll: 10 * time.Millisecond,
		Logf: t.Logf,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return srv.URL
}

// faultsim runs the command and returns its output.
func faultsim(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("faultsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// TestRemoteMatchesLocal: the same campaign run in this process and
// with -remote against a coordinator and a worker prints the same JSON,
// byte for byte: a result carries what the campaign found, not how or
// where it ran.
func TestRemoteMatchesLocal(t *testing.T) {
	args := []string{"-bench", "caes", "-n", "60", "-json"}
	local := faultsim(t, args...)
	if !strings.Contains(local, `"Injections": 60`) {
		t.Fatalf("local output is not a 60-injection campaign:\n%s", local)
	}
	remote := faultsim(t, append(args, "-remote", startFleet(t))...)
	if remote != local {
		t.Errorf("-remote output differs from the local run:\n%s\nwant\n%s", remote, local)
	}
}

// TestRemoteRejectsCheckpoint: a fleet campaign's checkpoints live on
// the coordinator, so -checkpoint with -remote is an error before any
// request is made or directory created, not a flag dropped in silence.
func TestRemoteRejectsCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	var out strings.Builder
	err := run([]string{"-bench", "caes", "-n", "4", "-remote", "http://127.0.0.1:1", "-checkpoint", dir}, &out)
	if err == nil || !strings.Contains(err.Error(), "checkpoints live on the coordinator") {
		t.Fatalf("error = %v, want the -checkpoint/-remote rejection", err)
	}
	if out.Len() != 0 {
		t.Errorf("wrote %q before failing", out.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("the checkpoint directory exists after the rejection: %v", err)
	}
}

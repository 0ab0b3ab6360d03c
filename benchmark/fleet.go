package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/distrib"
)

// fleetWorkers is the size of the loopback fleet; each worker replays on
// one goroutine, so the fleet uses the same two cores as a local sweep.
const fleetWorkers = 2

// fleetPoll replaces the 500 ms idle and progress polls of the service
// defaults: at this pass length a half-second poll would be a tenth of
// the wall and most of its run-to-run spread.
const fleetPoll = 10 * time.Millisecond

// fleetHooks are the outside taps of a traced fleet pass.
type fleetHooks struct {
	wrap   func(http.Handler) http.Handler                           // around Coordinator.Handler()
	reqLog func(worker int) func(string, string, int, time.Duration) // WorkerOptions.ReqLog
}

// fleet is an in-process coordinator on a loopback listener plus its
// workers. Campaign IDs are content hashes, so every pass gets a fresh
// one: a reused coordinator would answer from its finished campaigns.
type fleet struct {
	coord  *distrib.Coordinator
	srv    *httptest.Server
	client *distrib.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(workers int, hooks *fleetHooks) *fleet {
	f := &fleet{coord: distrib.NewCoordinator(distrib.CoordinatorOptions{})}
	h := f.coord.Handler()
	if hooks != nil && hooks.wrap != nil {
		h = hooks.wrap(h)
	}
	f.srv = httptest.NewServer(h)
	f.client = distrib.NewClient(f.srv.URL)
	f.client.Poll = fleetPoll
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < workers; i++ {
		opt := distrib.WorkerOptions{
			Coordinator: f.srv.URL, ID: trackName(i), Workers: 1, Poll: fleetPoll,
		}
		if hooks != nil && hooks.reqLog != nil {
			opt.ReqLog = hooks.reqLog(i)
		}
		w := distrib.NewWorker(opt)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx) // returns ctx.Err() on stop
		}()
	}
	return f
}

// stop ends the workers, the listener and the coordinator, and returns
// once each has ended.
func (f *fleet) stop() error {
	f.cancel()
	f.wg.Wait()
	f.srv.Close()
	return f.coord.Close()
}

// fleetSetup times the fleet's set-up as a submitter sees it: from the
// first submission of the matrix to the first shard a worker could lease.
func fleetSetup(seed int64, inj, workers int) (time.Duration, error) {
	f := startFleet(0, nil)
	defer f.stop()
	// Plan both figures through core, but submit them ourselves: the
	// stock runner would block waiting for results no worker produces.
	var items []core.MatrixItem
	collect := func(its []core.MatrixItem, _ campaign.SweepOptions) (*campaign.SweepResult, error) {
		items = append(items, its...)
		return nil, errSetupOnly
	}
	p := fleetParams(seed, inj, workers, collect)
	if _, err := p.Figure1(); !errors.Is(err, errSetupOnly) {
		return 0, fmt.Errorf("figure 1 plan: %v", err)
	}
	if _, err := p.Figure2(); !errors.Is(err, errSetupOnly) {
		return 0, fmt.Errorf("figure 2 plan: %v", err)
	}
	start := time.Now()
	for _, it := range items {
		_, err := f.client.Submit(distrib.CampaignSpec{
			Workload: it.Workload, Model: it.Model.String(), Setup: it.Setup, Config: it.Campaign.Config,
		})
		if err != nil {
			return 0, err
		}
	}
	deadline := start.Add(time.Minute)
	for {
		l, err := f.coord.Lease(distrib.LeaseRequest{API: distrib.APIVersion, Worker: "setup"})
		if err != nil {
			return 0, err
		}
		if l != nil && len(l.Jobs) > 0 {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no lease within a minute of submission")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

var errSetupOnly = errors.New("set-up only")

package distrib

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// Client is the submission-side library: it talks to a coordinator's
// API and exposes a core.SweepRunner, so cmd/paper -remote can
// regenerate any figure, and cmd/faultsim -remote run its one campaign,
// against a fleet.
type Client struct {
	// Base is the coordinator's base URL.
	Base string

	// HTTP overrides the transport; nil uses a default client.
	HTTP *http.Client

	// Poll bounds how long one progress request of Wait is held at the
	// coordinator, which answers it as soon as the campaign ends (0
	// selects 500ms); Wait asks again at once after a held answer.
	Poll time.Duration
}

// NewClient builds a client for a coordinator base URL.
func NewClient(base string) *Client {
	return &Client{Base: base}
}

// Submit registers a campaign and returns its (deterministic) ID.
func (c *Client) Submit(spec CampaignSpec) (string, error) {
	var resp SubmitResponse
	if err := c.do(context.Background(), http.MethodPost, "/api/v1/campaigns", spec, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Progress fetches one campaign's live state.
func (c *Client) Progress(id string) (Progress, error) {
	var p Progress
	err := c.do(context.Background(), http.MethodGet, "/api/v1/campaigns/"+id, nil, &p)
	return p, err
}

// Report fetches a finished campaign's full result.
func (c *Client) Report(id string) (*campaign.Result, error) {
	var res campaign.Result
	if err := c.do(context.Background(), http.MethodGet, "/api/v1/campaigns/"+id+"/report", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Wait holds progress requests until the campaign finishes (or fails,
// or stop fires) and returns its result. The report carries no
// campaign.Account; Wait fills its wall times from the coordinator's
// final Progress, and the lane accounting stays with the workers that
// packed the lanes.
func (c *Client) Wait(id string, stop <-chan struct{}) (*campaign.Result, error) {
	res, _, err := c.wait(id, stop)
	return res, err
}

// wait is Wait that also returns the last Progress it fetched, which
// holds the finished campaign's frozen counters and wall times. Stop
// cuts a held request; a request answered sooner than its hold, as by
// a coordinator whose LeaseTTL is shorter than Poll, is followed by the
// next only once Poll has passed.
func (c *Client) wait(id string, stop <-chan struct{}) (*campaign.Result, Progress, error) {
	hold := c.Poll
	if hold <= 0 {
		hold = 500 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if stop != nil {
		go func() {
			select {
			case <-stop:
				cancel()
			case <-ctx.Done():
			}
		}()
	}
	path := fmt.Sprintf("/api/v1/campaigns/%s?waitMillis=%d", id, hold.Milliseconds())
	for {
		start := time.Now()
		var p Progress
		if err := c.do(ctx, http.MethodGet, path, nil, &p); err != nil {
			if ctx.Err() != nil {
				err = campaign.ErrInterrupted
			}
			return nil, p, err
		}
		switch p.Status {
		case StatusDone:
			res, err := c.Report(id)
			if err == nil {
				res.Elapsed = time.Duration(p.ElapsedSecs * float64(time.Second))
				res.GoldenElapsed = time.Duration(p.GoldenSecs * float64(time.Second))
				if p.Replayed > 0 {
					res.AvgSecPerRun = p.ElapsedSecs / float64(p.Replayed)
				}
			}
			return res, p, err
		case StatusFailed:
			return nil, p, fmt.Errorf("distrib: campaign %s failed: %s", id, p.Error)
		}
		if sleepCtx(ctx, hold-time.Since(start)) != nil {
			return nil, p, campaign.ErrInterrupted
		}
	}
}

// SweepRunner returns a core.SweepRunner that executes a planned figure
// matrix on the coordinator's fleet: the whole matrix is submitted up
// front in one request (so the fleet pipelines goldens and shards
// across campaigns, and the coordinator starts a golden-sharing group's
// campaigns together and leases them as one unit); then results are
// collected and folded into the same SweepResult shape the local
// scheduler produces — bit-identical classifications by the
// shard-merge determinism contract. Checkpointing is coordinator-side,
// so opt.CheckpointDir is ignored here; opt.Stop aborts the wait.
func (c *Client) SweepRunner() core.SweepRunner {
	return func(items []core.MatrixItem, opt campaign.SweepOptions) (*campaign.SweepResult, error) {
		start := time.Now()
		specs := make([]CampaignSpec, len(items))
		for i, it := range items {
			specs[i] = CampaignSpec{
				Workload: it.Workload,
				Model:    it.Model.String(),
				Setup:    it.Setup,
				Config:   it.Campaign.Config,
			}
		}
		var resps []SubmitResponse
		if err := c.do(context.Background(), http.MethodPost, "/api/v1/campaigns/batch", specs, &resps); err != nil {
			return nil, err
		}
		if len(resps) != len(items) {
			return nil, fmt.Errorf("distrib: %d campaigns submitted, %d acknowledged", len(items), len(resps))
		}
		sr := &campaign.SweepResult{
			Results: make(map[string]*campaign.Result, len(items)),
			Goldens: make(map[string]campaign.GoldenInfo),
		}
		for i, it := range items {
			res, p, err := c.wait(resps[i].ID, opt.Stop)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.Campaign.Key, err)
			}
			sr.Resumed += p.Resumed
			sr.Results[it.Campaign.Key] = res
			if _, ok := sr.Goldens[it.Campaign.Group]; !ok {
				// The coordinator's golden cost: enough for TABLE II
				// reuse (snapshot counts stay coordinator-side).
				sr.Goldens[it.Campaign.Group] = campaign.GoldenInfo{
					Group:   it.Campaign.Group,
					Cycles:  res.GoldenCycles,
					Txns:    res.GoldenTxns,
					Elapsed: res.GoldenElapsed,
				}
			}
		}
		sr.GoldenRuns = len(sr.Goldens)
		sr.Elapsed = time.Since(start)
		return sr, nil
	}
}

// do issues one API call through the shared retrying transport (see
// retry.go for why retrying these POSTs is safe).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	hc := c.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	api := jsonAPI{http: hc, base: c.Base, attempts: retryAttempts}
	_, err := api.call(ctx, method, path, in, out)
	return err
}

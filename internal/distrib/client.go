package distrib

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
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

	// Poll caps the progress polling interval while waiting (0 selects
	// 500ms): the first poll comes after min(Poll, 10ms), and the
	// interval doubles up to Poll, so a short campaign is not held to a
	// long interval.
	Poll time.Duration
}

// NewClient builds a client for a coordinator base URL.
func NewClient(base string) *Client {
	return &Client{Base: base}
}

// Submit registers a campaign and returns its (deterministic) ID.
func (c *Client) Submit(spec CampaignSpec) (string, error) {
	var resp SubmitResponse
	if err := c.do(http.MethodPost, "/api/v1/campaigns", spec, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Progress fetches one campaign's live state.
func (c *Client) Progress(id string) (Progress, error) {
	var p Progress
	err := c.do(http.MethodGet, "/api/v1/campaigns/"+id, nil, &p)
	return p, err
}

// Report fetches a finished campaign's full result.
func (c *Client) Report(id string) (*campaign.Result, error) {
	var res campaign.Result
	if err := c.do(http.MethodGet, "/api/v1/campaigns/"+id+"/report", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Wait polls until the campaign finishes (or fails, or stop fires) and
// returns its result. The report carries no campaign.Account; Wait
// fills its wall times from the coordinator's final Progress, and the
// lane accounting stays with the workers that packed the lanes.
func (c *Client) Wait(id string, stop <-chan struct{}) (*campaign.Result, error) {
	res, _, err := c.wait(id, stop)
	return res, err
}

// wait is Wait that also returns the last Progress it polled, which
// holds the finished campaign's frozen counters and wall times.
func (c *Client) wait(id string, stop <-chan struct{}) (*campaign.Result, Progress, error) {
	limit := c.Poll
	if limit <= 0 {
		limit = 500 * time.Millisecond
	}
	poll := min(limit, 10*time.Millisecond)
	for {
		p, err := c.Progress(id)
		if err != nil {
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
		select {
		case <-stop:
			return nil, p, campaign.ErrInterrupted
		case <-time.After(poll):
		}
		poll = min(2*poll, limit)
	}
}

// SweepRunner returns a core.SweepRunner that executes a planned figure
// matrix on the coordinator's fleet: every item is submitted up front
// (so the fleet pipelines goldens and shards across campaigns), the
// campaigns of one golden-sharing group back to back, so the
// coordinator starts them together and leases them as one unit; then
// results are collected and folded into the same SweepResult shape the
// local scheduler produces — bit-identical classifications by the
// shard-merge determinism contract. Checkpointing is coordinator-side,
// so opt.CheckpointDir is ignored here; opt.Stop aborts the wait.
func (c *Client) SweepRunner() core.SweepRunner {
	return func(items []core.MatrixItem, opt campaign.SweepOptions) (*campaign.SweepResult, error) {
		start := time.Now()
		byGroup := slices.Clone(items)
		slices.SortStableFunc(byGroup, func(a, b core.MatrixItem) int {
			return strings.Compare(a.Campaign.Group, b.Campaign.Group)
		})
		ids := make(map[string]string, len(items))
		for _, it := range byGroup {
			spec := CampaignSpec{
				Workload: it.Workload,
				Model:    it.Model.String(),
				Setup:    it.Setup,
				Config:   it.Campaign.Config,
			}
			id, err := c.Submit(spec)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.Campaign.Key, err)
			}
			ids[it.Campaign.Key] = id
		}
		sr := &campaign.SweepResult{
			Results: make(map[string]*campaign.Result, len(items)),
			Goldens: make(map[string]campaign.GoldenInfo),
		}
		for _, it := range items {
			res, p, err := c.wait(ids[it.Campaign.Key], opt.Stop)
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
func (c *Client) do(method, path string, in, out any) error {
	hc := c.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	api := jsonAPI{http: hc, base: c.Base, attempts: retryAttempts}
	_, err := api.call(context.Background(), method, path, in, out)
	return err
}

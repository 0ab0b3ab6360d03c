package distrib

// Transport-level retry: every client and worker API call passes
// through a bounded exponential backoff with jitter before surfacing an
// error, so a coordinator restart or a load-balancer hiccup does not
// fail a campaign submission, a Wait poll, or a worker's lease cycle.
//
// Only genuinely transient failures are retried: transport errors
// (connection refused/reset while a coordinator restarts, timeouts) and
// server-side 5xx responses. 4xx responses are never retried — they
// carry protocol semantics the callers map onto behavior (410 Gone
// marks a re-issued lease whose batch must be dropped, 404 an unknown
// campaign, 400 a rejected spec). Retrying POSTs is safe in this
// protocol by construction: Submit is idempotent (deterministic
// campaign IDs), a heartbeat sets an absolute deadline, duplicate
// outcome deliveries are ignored by the collector, and a duplicated
// lease pull merely checks out a shard whose lease expires and is
// re-issued.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/obs"
)

const (
	// retryAttempts is the total number of tries per call.
	retryAttempts = 5
	// retryBase is the first backoff; each retry doubles it.
	retryBase = 100 * time.Millisecond
	// retryCap bounds a single backoff, keeping the worst-case stall
	// per call at roughly attempts*cap even if attempts grows.
	retryCap = 2 * time.Second
)

// retryable reports whether one API call's failure warrants another
// attempt: a transport-level error (no HTTP status at all) or a
// server-side 5xx.
func retryable(code int, err error) bool {
	if err == nil {
		return false
	}
	return code == 0 || code >= 500
}

// backoffDelay returns the jittered delay before retry attempt
// (0-based): exponential growth from retryBase capped at retryCap, with
// equal jitter — half the window fixed, half uniform — so a restarted
// coordinator is not hit by its whole fleet on one schedule.
func backoffDelay(attempt int) time.Duration {
	d := retryBase << uint(attempt)
	if d <= 0 || d > retryCap {
		d = retryCap
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// sleepCtx waits d, returning early when ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jsonAPI is one peer's side of the coordinator's JSON-over-HTTP API:
// the client library and the worker both reach every endpoint through
// call, so marshalling, the error envelope, the bounded response read
// and the retry policy exist once.
type jsonAPI struct {
	http     *http.Client
	base     string // coordinator base URL
	attempts int    // total tries per call

	// reqLog, when non-nil, is told every round trip as it completes —
	// once per attempt, status 0 on a transport failure.
	reqLog func(method, path string, status int, d time.Duration)

	// retries, when non-nil, counts the attempts after the first.
	retries *obs.Counter
}

// call issues one API call with bounded retry: transient failures
// (transport errors, 5xx) back off exponentially with jitter — a
// coordinator restart costs a pause, not the call — while semantic
// responses (410 Gone above all) surface immediately. The last status
// code is returned (0 on transport failure) for callers that treat
// specific codes specially. Cancelling ctx wins over the backoff.
func (a jsonAPI) call(ctx context.Context, method, path string, in, out any) (int, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	var (
		code int
		err  error
	)
	for try := 0; try < a.attempts; try++ {
		if try > 0 {
			if a.retries != nil {
				a.retries.Inc()
			}
			if sleepCtx(ctx, backoffDelay(try-1)) != nil {
				return code, err
			}
		}
		code, err = a.once(ctx, method, path, body, out)
		if !retryable(code, err) || ctx.Err() != nil {
			return code, err
		}
	}
	return code, err
}

// once issues one round trip, decoding the JSON response into out (when
// non-nil and the response has one) and turning a non-2xx response into
// an error carrying the server's error envelope.
func (a jsonAPI) once(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := a.http.Do(req)
	if err != nil {
		if a.reqLog != nil {
			a.reqLog(method, path, 0, time.Since(start))
		}
		return 0, err
	}
	if a.reqLog != nil {
		a.reqLog(method, path, resp.StatusCode, time.Since(start))
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		if eb.Error == "" {
			eb.Error = resp.Status
		}
		return resp.StatusCode, fmt.Errorf("distrib: %s %s: HTTP %d: %s", method, path, resp.StatusCode, eb.Error)
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("distrib: decode %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

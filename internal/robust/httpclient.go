package robust

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// ErrBreakerOpen marks a RetryClient.Do refused without touching the wire
// because the circuit breaker is open. Callers distinguish it from transport
// errors with errors.Is: an open breaker means the dependency is known-dead
// and the caller should serve a degraded answer, not report a fresh failure.
var ErrBreakerOpen = errors.New("robust: circuit breaker open")

// RetryClient wraps an http.Client with the retry discipline the rest of the
// package applies to local work: exponentially backed-off attempts, a shared
// circuit breaker consulted before every attempt, and 5xx responses treated
// as transient failures. It is the client the federation aggregator uses to
// talk to vantage daemons — one RetryClient (and so one Breaker) per vantage
// makes each remote an isolated failure domain.
type RetryClient struct {
	// Client performs the actual requests; nil uses http.DefaultClient. Set
	// Client.Timeout to bound each individual attempt.
	Client *http.Client
	// Backoff spaces retries; the zero value is usable (500ms base).
	Backoff Backoff
	// Breaker, when non-nil, is consulted before every attempt and fed each
	// outcome. An open breaker fails the call immediately with
	// ErrBreakerOpen.
	Breaker *Breaker
	// MaxAttempts caps attempts per Do call (default 3).
	MaxAttempts int
	// Sleep waits between attempts; nil uses SleepContext. Tests inject a
	// recording clock.
	Sleep func(context.Context, time.Duration) error
}

func (c *RetryClient) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 3
	}
	return c.MaxAttempts
}

// Get issues a GET to url under the retry discipline.
func (c *RetryClient) Get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// Do performs req, retrying transport errors and retryable status codes with
// backoff until an attempt succeeds, MaxAttempts is exhausted, the context
// dies, or the breaker opens. On success the response body is the caller's to
// close; failed retryable responses are drained and closed here so the
// underlying connection is reused. Requests with a non-nil Body need
// req.GetBody (as http.NewRequest sets for common body types) to be
// retryable; without it the first attempt's outcome is final.
func (c *RetryClient) Do(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = SleepContext
	}
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if c.Breaker != nil && !c.Breaker.Allow() {
			if lastErr != nil {
				return nil, fmt.Errorf("%w; last error: %v", ErrBreakerOpen, lastErr)
			}
			return nil, ErrBreakerOpen
		}
		attemptReq := req
		if attempt > 0 {
			if req.Body != nil {
				if req.GetBody == nil {
					break // body consumed, cannot replay
				}
				body, err := req.GetBody()
				if err != nil {
					return nil, fmt.Errorf("robust: rewinding request body: %w", err)
				}
				clone := req.Clone(ctx)
				clone.Body = body
				attemptReq = clone
			} else {
				attemptReq = req.Clone(ctx)
			}
		}
		resp, err := client.Do(attemptReq)
		if err == nil && resp.StatusCode < 500 {
			if c.Breaker != nil {
				c.Breaker.Success()
			}
			return resp, nil
		}
		if err == nil {
			// Retryable status: drain so the connection is reusable, then
			// treat it as a failure.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			err = fmt.Errorf("robust: %s %s: status %s", req.Method, req.URL, resp.Status)
		}
		if c.Breaker != nil {
			c.Breaker.Failure()
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		if attempt+1 >= c.maxAttempts() {
			break
		}
		if serr := sleep(ctx, c.Backoff.Delay(attempt)); serr != nil {
			return nil, serr
		}
	}
	return nil, fmt.Errorf("robust: %s %s failed after retries: %w", req.Method, req.URL, lastErr)
}

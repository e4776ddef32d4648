// Package client is the typed Go client for the Litmus assessment
// service (internal/serve). It wraps the JSON API in three primitives —
// Submit, Job, Result — plus Assess and AssessBatch, blocking helpers
// that submit, ride out 429 backpressure using the server's Retry-After
// hint, and then wait for the answer in the round trip: one
// GET /v1/jobs/{id}/result?wait=<d> blocks server-side until the job
// finishes and returns the canonical assessment document, so a job
// costs two requests and no status polls. Against a server without
// wait support (it answers 409 while the job is pending) the helpers
// fall back to re-asking every PollInterval.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// Client talks to one assessment service instance.
type Client struct {
	baseURL string
	httpc   *http.Client

	// PollInterval is how often Assess and AssessBatch re-ask a server
	// that does not support ?wait (default 50ms). Against one that does,
	// it is never used.
	PollInterval time.Duration
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080"). A nil httpc uses http.DefaultClient.
func New(baseURL string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{
		baseURL:      strings.TrimRight(baseURL, "/"),
		httpc:        httpc,
		PollInterval: 50 * time.Millisecond,
	}
}

// BaseURL returns the service base URL this client targets — the
// identity shard routing uses for ring membership.
func (c *Client) BaseURL() string { return c.baseURL }

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's backoff hint on 429 responses; zero
	// otherwise.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// IsBackpressure reports whether err is the service shedding load (429
// queue-full); callers should wait err.RetryAfter and resubmit.
func IsBackpressure(err error) bool {
	apiErr, ok := err.(*APIError)
	return ok && apiErr.StatusCode == http.StatusTooManyRequests
}

func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var body serve.APIError
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil {
		apiErr.Message = body.Error
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	return apiErr
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.httpc.Do(req)
}

// Submit posts an assessment request. A 200/202 yields the submit
// response (Cached reports a result-cache or in-flight dedup hit); any
// other status is an *APIError — 429 carries the Retry-After hint.
func (c *Client) Submit(ctx context.Context, req *serve.AssessRequest) (*serve.SubmitResponse, error) {
	var sub serve.SubmitResponse
	if err := c.post(ctx, "/v1/assess", req, &sub, "submit response"); err != nil {
		return nil, err
	}
	return &sub, nil
}

// SubmitBatch posts a changelog to POST /v1/assess/batch. The response
// carries the batch job id plus per-entry digests and cached flags.
func (c *Client) SubmitBatch(ctx context.Context, req *serve.BatchAssessRequest) (*serve.BatchSubmitResponse, error) {
	var sub serve.BatchSubmitResponse
	if err := c.post(ctx, "/v1/assess/batch", req, &sub, "batch submit response"); err != nil {
		return nil, err
	}
	return &sub, nil
}

// post sends in as JSON to path and decodes a 200/202 response into
// out; what names the response in decoding errors. Any other status is
// an *APIError.
func (c *Client) post(ctx context.Context, path string, in, out any, what string) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("encoding request: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return decodeAPIError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}

// AssessBatch submits a changelog and blocks until the batch job
// finishes, returning the decoded per-entry result document. Queue-full
// 429s are retried after the server's Retry-After hint.
func (c *Client) AssessBatch(ctx context.Context, req *serve.BatchAssessRequest) (*serve.BatchResultDoc, error) {
	raw, err := c.submitAndWait(ctx, func() (string, error) {
		sub, err := c.SubmitBatch(ctx, req)
		if err != nil {
			return "", err
		}
		return sub.ID, nil
	})
	if err != nil {
		return nil, err
	}
	var doc serve.BatchResultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("decoding batch result: %w", err)
	}
	return &doc, nil
}

// Ready probes GET /readyz. nil means the node is accepting work; a
// non-200 (e.g. 503 while the journal is still replaying) returns an
// *APIError carrying any Retry-After hint, and transport failures
// surface as-is — so callers can back off exactly the way Assess does
// on 429.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/readyz", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	return decodeAPIError(resp)
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (*serve.JobStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding job status: %w", err)
	}
	return &st, nil
}

// Result fetches a finished job's canonical assessment document, as raw
// bytes (the service's golden wire format).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Assess submits req and blocks until the assessment finishes,
// returning the canonical result bytes. Queue-full 429s are retried
// after the server's Retry-After hint, and the result is awaited in the
// round trip (see submitAndWait). Cancel ctx to give up.
func (c *Client) Assess(ctx context.Context, req *serve.AssessRequest) ([]byte, error) {
	return c.submitAndWait(ctx, func() (string, error) {
		sub, err := c.Submit(ctx, req)
		if err != nil {
			return "", err
		}
		return sub.ID, nil
	})
}

// submitAndWait calls submit until the service accepts it, waiting out
// each queue-full 429 for the server's Retry-After hint (1s without
// one), then fetches the job's result with ?wait until it is there: a
// 202 (the wait expired first) is reissued at once, and a 409 — a
// server without wait support — after PollInterval.
func (c *Client) submitAndWait(ctx context.Context, submit func() (string, error)) ([]byte, error) {
	var id string
	for {
		var err error
		if id == "" {
			if id, err = submit(); err == nil {
				continue
			}
		} else {
			b, done, werr := c.waitResult(ctx, id)
			if done {
				return b, nil
			}
			if err = werr; err == nil {
				continue
			}
		}
		var pause time.Duration
		var apiErr *APIError
		switch {
		case IsBackpressure(err):
			if pause = err.(*APIError).RetryAfter; pause <= 0 {
				pause = time.Second
			}
		case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict:
			pause = c.PollInterval
		default:
			return nil, err
		}
		if err := sleepCtx(ctx, pause); err != nil {
			return nil, err
		}
	}
}

// waitResult is one GET /v1/jobs/{id}/result?wait=<d>, the wait being
// serve.MaxResultWait or the time left before ctx's deadline, whichever
// is shorter. done reports the result bytes in b; !done with a nil
// error means the wait expired first. A failed job is reported as a
// plain error rather than an *APIError, as it was when the failure was
// read off a status poll: a router treats it as a failoverable node
// fault (a job canceled by a node's shutdown reruns elsewhere).
func (c *Client) waitResult(ctx context.Context, id string) (b []byte, done bool, err error) {
	wait := serve.MaxResultWait
	if dl, ok := ctx.Deadline(); ok {
		wait = max(min(wait, time.Until(dl)), 0)
	}
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result?wait="+wait.Truncate(time.Millisecond).String(), nil)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		b, err := io.ReadAll(resp.Body)
		return b, err == nil, err
	case http.StatusAccepted:
		return nil, false, nil
	}
	err = decodeAPIError(resp)
	if apiErr := err.(*APIError); apiErr.StatusCode == http.StatusInternalServerError {
		return nil, false, fmt.Errorf("job %s failed: %s", id, strings.TrimPrefix(apiErr.Message, "job failed: "))
	}
	return nil, false, err
}

// sleepCtx sleeps for d or until ctx is done, returning ctx.Err() on
// early wake. Unlike time.After — whose timer lingers until it fires
// even after the select has moved on — the timer is released
// immediately, so a tight retry loop under a long Retry-After hint does
// not accumulate pending timers.
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

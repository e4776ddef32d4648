package main

// The served path decomposed for the traced run: client.Assess and
// client.AssessBatch spelled out as their round trips, each in its own
// span, plus the service's own job timestamps (queue wait and run) as
// spans on the same clock — the nodes run in this process. An op's tree
// is
//
//	op
//	├ client.submit
//	├ client.wait            submit returned → a poll saw the job done
//	│ ├ serve.queue_wait
//	│ ├ serve.run
//	│ └ client.poll …        concurrent with serve.*
//	└ client.result
//
// so client.wait's self time is the polling lag no server work or poll
// covers.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// jobWatch is what polling a job to completion observed.
type jobWatch struct {
	status *serve.JobStatus
	seen   time.Time // end of the poll that saw the terminal state
}

// submitTraced runs submit in a client.submit span, riding out 429
// backpressure the way client.Assess does.
func submitTraced(ctx context.Context, t *tracer, parent, req int64, submit func() error) error {
	for {
		s := t.start("client.submit", parent, req)
		err := submit()
		s.end()
		if err == nil {
			return nil
		}
		if !client.IsBackpressure(err) {
			return err
		}
		wait := err.(*client.APIError).RetryAfter
		if wait <= 0 {
			wait = time.Second
		}
		if err := sleepCtx(ctx, wait); err != nil {
			return err
		}
	}
}

// pollTraced polls job id until it is done, one client.poll span per
// GET, sleeping the client's poll interval between polls.
func pollTraced(ctx context.Context, t *tracer, parent, req int64, c *client.Client, id string) (jobWatch, error) {
	for {
		s := t.start("client.poll", parent, req)
		st, err := c.Job(ctx, id)
		seen := s.end()
		if err != nil {
			return jobWatch{}, err
		}
		switch st.Status {
		case "done":
			return jobWatch{status: st, seen: seen}, nil
		case "failed":
			return jobWatch{}, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		if err := sleepCtx(ctx, c.PollInterval); err != nil {
			return jobWatch{}, err
		}
	}
}

// serverSpans records the service-side intervals of a finished job:
// serve.queue_wait (submitted → started) and serve.run (started →
// finished) when this submission caused the computation. It samples
// client.poll_lag: from the moment the result existed (the job's
// finish, or the submit's return for a job already done) to the end of
// the poll that saw it.
func serverSpans(t *tracer, parent, req int64, w jobWatch, cached bool, submitted time.Time) {
	st := w.status
	ready := submitted
	if st.StartedAt != nil && st.FinishedAt != nil {
		queue := ms(st.StartedAt.Sub(st.SubmittedAt))
		run := ms(st.FinishedAt.Sub(*st.StartedAt))
		if cached {
			// The job ran before this op (warm-up): its timings describe
			// the cached work, not this op's interval.
			t.observe("serve.queue_wait", queue)
			t.observe("serve.run", run)
		} else {
			t.interval("serve.queue_wait", parent, req, st.SubmittedAt, *st.StartedAt)
			t.interval("serve.run", parent, req, *st.StartedAt, *st.FinishedAt)
			ready = *st.FinishedAt
		}
	}
	t.observe("client.poll_lag", ms(max(w.seen.Sub(ready), 0)))
}

// waitTraced polls job id to completion inside a client.wait span and
// records the service-side spans under it.
func waitTraced(ctx context.Context, t *tracer, parent, req int64, c *client.Client, id string, cached bool) error {
	submitted := time.Now()
	wait := t.start("client.wait", parent, req)
	w, err := pollTraced(ctx, t, wait.id, req, c, id)
	wait.end()
	if err != nil {
		return err
	}
	serverSpans(t, wait.id, req, w, cached, submitted)
	return nil
}

// assessTraced is client.Assess with a span per round trip.
func assessTraced(ctx context.Context, t *tracer, parent, req int64, c *client.Client, r *serve.AssessRequest) ([]byte, error) {
	var sub *serve.SubmitResponse
	if err := submitTraced(ctx, t, parent, req, func() (err error) {
		sub, err = c.Submit(ctx, r)
		return err
	}); err != nil {
		return nil, err
	}
	if err := waitTraced(ctx, t, parent, req, c, sub.ID, sub.Cached); err != nil {
		return nil, err
	}
	s := t.start("client.result", parent, req)
	b, err := c.Result(ctx, sub.ID)
	s.end()
	return b, err
}

// assessBatchTraced is client.AssessBatch with a span per round trip.
func assessBatchTraced(ctx context.Context, t *tracer, parent, req int64, c *client.Client, r *serve.BatchAssessRequest) (*serve.BatchResultDoc, error) {
	var sub *serve.BatchSubmitResponse
	if err := submitTraced(ctx, t, parent, req, func() (err error) {
		sub, err = c.SubmitBatch(ctx, r)
		return err
	}); err != nil {
		return nil, err
	}
	if err := waitTraced(ctx, t, parent, req, c, sub.ID, sub.Cached); err != nil {
		return nil, err
	}
	s := t.start("client.result", parent, req)
	raw, err := c.Result(ctx, sub.ID)
	var doc serve.BatchResultDoc
	if err == nil {
		if err = json.Unmarshal(raw, &doc); err != nil {
			err = fmt.Errorf("decoding batch result: %w", err)
		}
	}
	s.end()
	return &doc, err
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C:
		return nil
	}
}

package serve

// Tests of the job-execution hardening: per-job panic recovery, a
// failure that ends the job on its one execution, and the degraded
// status surface.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"

	litmus "repro"
)

// newHookedServer builds a server whose assessment body is replaced by
// exec; panic recovery still applies. Hooks that
// also inject degradation failures set s.testExecute directly.
func newHookedServer(t *testing.T, cfg Config, exec func(ctx context.Context, j *job) ([]byte, bool, error)) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	s.testExecute = func(ctx context.Context, j *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		b, degraded, err := exec(ctx, j)
		return b, degraded, nil, err
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// TestJobPanicRecovered: a panicking job must fail with a
// stack-annotated error — and must not kill its worker, so the next job
// still runs.
func TestJobPanicRecovered(t *testing.T) {
	var calls atomic.Int64
	s, ts := newHookedServer(t, Config{Workers: 1}, func(context.Context, *job) ([]byte, bool, error) {
		if calls.Add(1) == 1 {
			panic("boom")
		}
		return []byte(`{}`), false, nil
	})

	sub, _ := submit(t, ts, requestWithSeed(t, 8101))
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateFailed {
		t.Fatalf("panicked job finished %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "job panicked: boom") {
		t.Errorf("error %q does not name the panic value", st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Errorf("error %q carries no stack trace", st.Error)
	}
	if n := counterValue(t, s.Registry(), obs.MetricJobPanics); n != 1 {
		t.Errorf("panic counter = %d, want 1", n)
	}

	// The single worker survived the panic: a second job completes.
	sub2, _ := submit(t, ts, requestWithSeed(t, 8102))
	if st := waitDone(t, ts, sub2.ID); st.Status != stateDone {
		t.Fatalf("post-panic job finished %s, want done", st.Status)
	}
}

// TestDeterministicFailureNotRetried: a failure ends the job on its one
// execution — the engine is deterministic, so a rerun could only repeat
// the same error.
func TestDeterministicFailureNotRetried(t *testing.T) {
	var calls atomic.Int64
	_, ts := newHookedServer(t, Config{}, func(context.Context, *job) ([]byte, bool, error) {
		calls.Add(1)
		return nil, false, fmt.Errorf("%w: element vanished", litmus.ErrNoData)
	})

	sub, _ := submit(t, ts, requestWithSeed(t, 8401))
	if st := waitDone(t, ts, sub.ID); st.Status != stateFailed {
		t.Fatalf("job finished %s, want failed", st.Status)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("executions = %d, want 1 (failed jobs are not retried)", n)
	}
}

// TestDegradedJobSurfaced: a partial result finishes done with the
// degraded flag set — in the job status, the jobs metric, and the
// cached entry a later resubmit resurrects.
func TestDegradedJobSurfaced(t *testing.T) {
	s, ts := newHookedServer(t, Config{JobRetention: 1}, func(context.Context, *job) ([]byte, bool, error) {
		return []byte(`{"degraded": true}`), true, nil
	})

	req := requestWithSeed(t, 8501)
	sub, _ := submit(t, ts, req)
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateDone {
		t.Fatalf("degraded job finished %s, want done", st.Status)
	}
	if !st.Degraded {
		t.Error("job status does not surface Degraded")
	}
	if _, code := fetchResult(t, ts, sub.ID); code != http.StatusOK {
		t.Errorf("degraded result: status = %d, want 200 (degraded is done, not failed)", code)
	}
	if n := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", "degraded")); n != 1 {
		t.Errorf(`jobs{status="degraded"} = %d, want 1`, n)
	}
	if n := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", stateDone)); n != 0 {
		t.Errorf(`jobs{status="done"} = %d, want 0 (degraded replaces done)`, n)
	}

	// Age the record out (retention 1), then resubmit: the resurrected
	// job must carry the degraded flag from the cache, not recompute.
	sub2, _ := submit(t, ts, requestWithSeed(t, 8502))
	waitDone(t, ts, sub2.ID)
	sub3, resp3 := submit(t, ts, req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status = %d, want 200 cache hit", resp3.StatusCode)
	}
	if st := waitDone(t, ts, sub3.ID); !st.Degraded || !st.Cached {
		t.Errorf("resurrected job: degraded=%v cached=%v, want both true", st.Degraded, st.Cached)
	}
}

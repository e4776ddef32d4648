package serve

// Tests of the wait-on-result protocol, GET /v1/jobs/{id}/result?wait=:
// completion answers the plain fetch's bytes, expiry a 202 status, bad
// waits a 400; a gone client or a hard stop releases the handler; a
// waiter outlives a failed run's done channel and job retention.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"

	litmus "repro"
)

// getWait issues GET …/result?wait=<wait> for id and returns the body
// and status.
func getWait(t *testing.T, ts *httptest.Server, id, wait string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result?wait=" + wait)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// TestWaitResultEqualsPlainFetch: a wait that ends at completion
// answers the bytes a plain fetch answers afterwards — the golden
// document.
func TestWaitResultEqualsPlainFetch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub, _ := submit(t, ts, goldenRequest(t))
	waited, code := getWait(t, ts, sub.ID, "30s")
	if code != http.StatusOK {
		t.Fatalf("wait: status = %d, want 200 (body: %s)", code, waited)
	}
	plain, code := fetchResult(t, ts, sub.ID)
	if code != http.StatusOK {
		t.Fatalf("plain fetch: status = %d, want 200", code)
	}
	if string(waited) != string(plain) {
		t.Fatal("waited result differs from the plain fetch")
	}
	if want := goldenFixture(t); string(waited)+"\n" != string(want) {
		t.Fatal("waited result differs from the golden fixture")
	}
	// A zero wait on a done job is a plain fetch with a 200.
	if b, code := getWait(t, ts, sub.ID, "0s"); code != http.StatusOK || string(b) != string(plain) {
		t.Fatalf("zero wait on a done job: status %d", code)
	}
}

// TestWaitExpiryAnswersStatus: a wait that expires before the job
// finishes answers 202 with the job's status.
func TestWaitExpiryAnswersStatus(t *testing.T) {
	s, ts := gatedServer(t, Config{Workers: 1})
	sub, _ := submit(t, ts, requestWithSeed(t, 9001))
	<-s.testStarted

	start := time.Now()
	body, code := getWait(t, ts, sub.ID, "30ms")
	if code != http.StatusAccepted {
		t.Fatalf("expired wait: status = %d, want 202 (body: %s)", code, body)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Errorf("expired wait returned after %v, before its 30ms", el)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("202 body is not a job status: %v", err)
	}
	if st.ID != sub.ID || st.Status != stateRunning {
		t.Errorf("202 status = %+v, want job %s running", st, sub.ID)
	}
	close(s.testRelease)
	if _, code := getWait(t, ts, sub.ID, "30s"); code != http.StatusOK {
		t.Errorf("wait after release: status = %d, want 200", code)
	}
}

// TestWaitBadAndCapped: an unparsable or negative wait answers 400; a
// wait above the cap is served as the cap; an unknown job is a 404.
func TestWaitBadAndCapped(t *testing.T) {
	s, ts := gatedServer(t, Config{Workers: 1})
	sub, _ := submit(t, ts, requestWithSeed(t, 9101))
	<-s.testStarted
	for _, w := range []string{"", "soon", "-1s", "10"} {
		if body, code := getWait(t, ts, sub.ID, w); code != http.StatusBadRequest {
			t.Errorf("wait=%q: status = %d, want 400 (body: %s)", w, code, body)
		}
	}
	if _, code := getWait(t, ts, "sha256:nope", "1s"); code != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", code)
	}
	for v, want := range map[string]time.Duration{"1ms": time.Millisecond, "29s": 29 * time.Second, "30s": MaxResultWait, "1h": MaxResultWait, "2000000h": MaxResultWait} {
		if got, err := resultWait(v); err != nil || got != want {
			t.Errorf("resultWait(%q) = %v, %v; want %v", v, got, err, want)
		}
	}
	// A wait far beyond the cap still answers as soon as the job is done.
	close(s.testRelease)
	if _, code := getWait(t, ts, sub.ID, "2000000h"); code != http.StatusOK {
		t.Errorf("over-cap wait: status = %d, want 200", code)
	}
}

// withArrivals serves s's handler behind a hook that signals each
// result fetch reaching the server, so a test can act once a waiter is
// in the handler instead of sleeping. The buffer holds every signal one
// test sends.
func withArrivals(t *testing.T, s *Server) (*httptest.Server, <-chan struct{}) {
	t.Helper()
	arrived := make(chan struct{}, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			arrived <- struct{}{}
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, arrived
}

// resultRequests reads how many result fetches have returned, by code.
func resultRequests(s *Server, code int) int64 {
	return s.Registry().Counter(obs.Labeled(obs.MetricHTTPRequests, "path", "GET /v1/jobs/{id}/result", "code", fmt.Sprint(code))).Value()
}

// TestWaitClientCancelReturnsHandler: when the client gives up, the
// waiting handler returns — it does not hold its goroutine to the cap.
// The route's request counter, bumped after the handler returns, is
// the exit signal.
func TestWaitClientCancelReturnsHandler(t *testing.T) {
	s, _ := gatedServer(t, Config{Workers: 1})
	t.Cleanup(func() { close(s.testRelease) })
	ts, arrived := withArrivals(t, s)
	sub, _ := submit(t, ts, requestWithSeed(t, 9201))
	<-s.testStarted

	before := resultRequests(s, http.StatusOK)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"/result?wait=30s", nil)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-arrived
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait: err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for resultRequests(s, http.StatusOK) == before {
		if time.Now().After(deadline) {
			t.Fatal("the waiting handler did not return after its client canceled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWaitHardShutdownWakesWaiters: a hard stop answers every waiter —
// on a running job and on a queued one — with 503 while the workers
// are still held.
func TestWaitHardShutdownWakesWaiters(t *testing.T) {
	s, _ := gatedServer(t, Config{Workers: 1, QueueDepth: 4})
	ts, arrived := withArrivals(t, s)
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(s.testRelease) }) })
	subA, _ := submit(t, ts, requestWithSeed(t, 9301))
	<-s.testStarted
	subB, _ := submit(t, ts, requestWithSeed(t, 9302))

	codes := make(chan int, 2)
	for _, id := range []string{subA.ID, subB.ID} {
		go func(id string) {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result?wait=30s")
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(id)
	}
	<-arrived
	<-arrived

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(expired) }()
	for i := 0; i < 2; i++ {
		select {
		case code := <-codes:
			if code != http.StatusServiceUnavailable {
				t.Errorf("waiter %d after hard stop: status = %d, want 503", i, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter was not woken by the hard stop")
		}
	}
	release.Do(func() { close(s.testRelease) })
	if err := <-shut; !errors.Is(err, context.Canceled) {
		t.Errorf("Shutdown = %v, want context.Canceled", err)
	}
}

// TestWaitFailedThenResubmitted: a waiter on a run that fails wakes on
// that run's done channel and answers from the job's state as it is
// then: the failure, or — when the job was already resubmitted — the
// rerun's result. It never hangs on the replaced channel.
func TestWaitFailedThenResubmitted(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	s := newServer(Config{Workers: 1})
	s.testStarted = make(chan string, 4)
	s.testRelease = make(chan struct{})
	s.testExecute = func(context.Context, *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		mu.Lock()
		defer mu.Unlock()
		if runs++; runs == 1 {
			return nil, false, nil, errors.New("first run fails")
		}
		return []byte(`{"run":2}`), false, nil, nil
	}
	s.start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ts, arrived := withArrivals(t, s)

	req := requestWithSeed(t, 9401)
	sub, _ := submit(t, ts, req)
	<-s.testStarted
	type answer struct {
		body []byte
		code int
	}
	answers := make(chan answer, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result?wait=30s")
		if err != nil {
			answers <- answer{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		answers <- answer{b, resp.StatusCode}
	}()
	<-arrived // the waiter is on run 1

	s.testRelease <- struct{}{} // run 1 fails
	waitDone(t, ts, sub.ID)
	if _, resp := submit(t, ts, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: status = %d, want 202", resp.StatusCode)
	}
	<-s.testStarted
	s.testRelease <- struct{}{} // run 2 succeeds

	select {
	case a := <-answers:
		switch {
		case a.code == http.StatusInternalServerError:
		case a.code == http.StatusOK && string(a.body) == `{"run":2}`:
		default:
			t.Errorf("waiter answered %d %s, want the failure (500) or the rerun's bytes", a.code, a.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter on the failed run never answered")
	}
	if b, code := getWait(t, ts, sub.ID, "30s"); code != http.StatusOK || string(b) != `{"run":2}` {
		t.Errorf("wait after the rerun: %d %s, want 200 {\"run\":2}", code, b)
	}
}

// TestWaitRetentionOneConcurrent: with JobRetention 1 and concurrent
// jobs, every job's record is evicted moments after it finishes; a
// submit followed by one waited fetch still gets every result.
func TestWaitRetentionOneConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JobRetention: 1})
	const clients, perClient = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := requestWithSeed(t, int64(9500+c*perClient+i))
				payload, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/assess", "application/json", bytes.NewReader(payload))
				if err != nil {
					errs <- err
					return
				}
				var sub SubmitResponse
				err = json.NewDecoder(resp.Body).Decode(&sub)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				r, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result?wait=30s")
				if err != nil {
					errs <- err
					return
				}
				var doc litmus.AssessmentDoc
				err = json.NewDecoder(r.Body).Decode(&doc)
				r.Body.Close()
				if r.StatusCode != http.StatusOK || err != nil || doc.ChangeID != req.Change.ID {
					errs <- fmt.Errorf("job %s: status %d, decode %v, change %q", sub.ID, r.StatusCode, err, doc.ChangeID)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

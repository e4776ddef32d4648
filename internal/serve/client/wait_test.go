package client

// Tests of the client's wait protocol: a job costs a submit and one
// waited result fetch, never a status poll; PollInterval only paces the
// fallback against a server that answers 409 to ?wait.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// countingTransport counts the client's requests by kind.
type countingTransport struct {
	base http.RoundTripper

	mu                      sync.Mutex
	submits, polls, results int
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	switch {
	case r.Method == http.MethodPost:
		c.submits++
	case strings.HasSuffix(r.URL.Path, "/result"):
		c.results++
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		c.polls++
	}
	c.mu.Unlock()
	return c.base.RoundTrip(r)
}

// take returns the counts since the last take and resets them.
func (c *countingTransport) take() (submits, polls, results int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	submits, polls, results = c.submits, c.polls, c.results
	c.submits, c.polls, c.results = 0, 0, 0
	return submits, polls, results
}

// countedService starts a service behind handler wrap (nil: none) and
// returns a client whose requests ct counts.
func countedService(t *testing.T, wrap func(http.Handler) http.Handler) (*Client, *countingTransport) {
	t.Helper()
	s := serve.New(serve.Config{})
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ct := &countingTransport{base: ts.Client().Transport}
	return New(ts.URL, &http.Client{Transport: ct}), ct
}

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(b, []byte("\n"))
}

// TestAssessWaitTwoRequests: Assess and AssessBatch make exactly one
// submit and one result fetch per call — computed or cache hit — and
// no status poll.
func TestAssessWaitTwoRequests(t *testing.T) {
	c, ct := countedService(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	check := func(what string) {
		t.Helper()
		if s, p, r := ct.take(); s != 1 || p != 0 || r != 1 {
			t.Errorf("%s: %d submits, %d status polls, %d result fetches; want 1, 0, 1", what, s, p, r)
		}
	}
	for _, what := range []string{"computed Assess", "cache-hit Assess"} {
		b, err := c.Assess(ctx, goldenRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, goldenBytes(t)) {
			t.Fatalf("%s: result deviates from the golden fixture", what)
		}
		check(what)
	}
	req := goldenRequest(t)
	req.Generator.Seed = 31
	for _, what := range []string{"computed AssessBatch", "cache-hit AssessBatch"} {
		doc, err := c.AssessBatch(ctx, batchOf(req))
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Entries) != 1 || doc.Entries[0].Error != "" {
			t.Fatalf("%s: entries %+v, want one assessed entry", what, doc.Entries)
		}
		check(what)
	}
}

// TestAssessWaitIgnoresPollInterval: against a server that supports ?wait,
// an hour-long PollInterval never delays the answer.
func TestAssessWaitIgnoresPollInterval(t *testing.T) {
	c, _ := countedService(t, nil)
	c.PollInterval = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	req := goldenRequest(t)
	req.Generator.Seed = 41
	if _, err := c.Assess(ctx, req); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("Assess took %v with PollInterval 1h", el)
	}
}

// TestAssessWaitFallsBackOn409: against a server that ignores ?wait and
// answers 409 while the job is pending, Assess re-asks every
// PollInterval and returns the same bytes.
func TestAssessWaitFallsBackOn409(t *testing.T) {
	var mu sync.Mutex
	conflicts := 0
	c, _ := countedService(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/result") {
				r.URL.RawQuery = "" // a server without wait support
				mu.Lock()
				conflicts++
				early := conflicts <= 2
				mu.Unlock()
				if early { // pending, as the first fetches of a slow job see it
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusConflict)
					_, _ = w.Write([]byte(`{"error": "job is running"}`))
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	c.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	b, err := c.Assess(ctx, goldenRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, goldenBytes(t)) {
		t.Fatal("fallback result deviates from the golden fixture")
	}
	mu.Lock()
	defer mu.Unlock()
	if conflicts < 3 {
		t.Errorf("%d result fetches, want ≥ 3 (two 409s, then the answer)", conflicts)
	}
}

package shard

// The half-open probe slot must come back when the probe's caller
// cancels it. Otherwise one canceled probe — a hedge loser, a caller
// deadline — leaves the circuit half-open with its slot taken for good,
// and the node is never tried again.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestBreakerCanceledProbeReleasesSlot: release frees a half-open
// probe slot without a verdict — the circuit stays half-open and the
// next request becomes the probe — and is a no-op in any other state.
func TestBreakerCanceledProbeReleasesSlot(t *testing.T) {
	var transitions []string
	b := newBreaker(1, 100*time.Millisecond, func(to breakerState) {
		transitions = append(transitions, to.String())
	})
	t0 := time.Unix(1000, 0)
	if ok, probe := b.allow(t0); !ok || probe {
		t.Fatalf("closed breaker: allow = %v, %v; want admitted, not a probe", ok, probe)
	}
	b.release() // no-op while closed
	b.observe(false, t0)
	if b.current() != stateOpen {
		t.Fatalf("state = %v, want open", b.current())
	}
	b.release() // no-op while open
	if ok, _ := b.allow(t0.Add(50 * time.Millisecond)); ok {
		t.Fatal("open breaker admitted before the cooldown after a release")
	}

	t1 := t0.Add(150 * time.Millisecond)
	if ok, probe := b.allow(t1); !ok || !probe {
		t.Fatalf("after cooldown: allow = %v, %v; want the probe", ok, probe)
	}
	if ok, _ := b.allow(t1); ok {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.release() // the probe's caller canceled it
	if b.current() != stateHalfOpen {
		t.Fatalf("state after a released probe = %v, want half-open", b.current())
	}
	if ok, probe := b.allow(t1); !ok || !probe {
		t.Fatalf("after release: allow = %v, %v; want a new probe", ok, probe)
	}
	b.observe(true, t1)
	if b.current() != stateClosed {
		t.Fatalf("state after the new probe succeeded = %v, want closed", b.current())
	}
	if want := "[open half-open closed]"; fmt.Sprint(transitions) != want {
		t.Fatalf("transitions = %v, want %s", transitions, want)
	}
}

// TestProbeCanceledHedgeClosesCircuit: the owner's circuit is half-open
// and its probe is a hedged request's primary; the owner stalls, the
// hedge wins, and the primary — the probe — is canceled. Once the owner
// answers again, traffic must close its circuit and route its keys back
// to it.
func TestProbeCanceledHedgeClosesCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two real nodes")
	}
	s0 := serve.New(serve.Config{Workers: 1})
	s1 := serve.New(serve.Config{Workers: 1})
	var stalled atomic.Bool
	ts0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.Load() {
			// A stalled node: answers nothing until the caller leaves. The
			// body is drained first — the server notices a closed
			// connection only once the request body has been read.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		s0.Handler().ServeHTTP(w, r)
	}))
	ts1 := httptest.NewServer(s1.Handler())
	t.Cleanup(func() {
		ts0.Close()
		ts1.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s0.Shutdown(ctx)
		_ = s1.Shutdown(ctx)
	})
	rt, err := NewRouter([]string{ts0.URL, ts1.URL}, RouterOptions{
		BreakerThreshold: 1,
		BreakerCooldown:  50 * time.Millisecond,
		Hedge:            true,
		HedgeMinDelay:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// A request the first node owns, answered once so both nodes hold it
	// cached: every later answer is a fast cache hit, never slower than
	// the hedge delay.
	var req *serve.AssessRequest
	for seed := int64(40_001); ; seed++ {
		r := testRequest(t, seed)
		id, err := serve.CanonicalJobID(r)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owner(id) == ts0.URL {
			req = r
			break
		}
	}
	for _, c := range []string{ts0.URL, ts1.URL} {
		if _, err := rt.clients[c].Assess(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	// Open the owner's circuit, let the cooldown pass, and stall the
	// owner: the next request's primary is the half-open probe, the
	// hedge to the second node wins, and the probe is canceled.
	rt.health[ts0.URL].observe(false, time.Now())
	time.Sleep(60 * time.Millisecond)
	stalled.Store(true)
	if _, err := rt.Assess(ctx, req); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.HedgeWins != 1 {
		t.Fatalf("hedge wins = %d, want 1 (the canceled probe's hedge): %+v", st.HedgeWins, st)
	}

	// The owner answers again: under traffic its circuit must close.
	stalled.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.Stats().BreakerOpen) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the owner's circuit never closed after its canceled probe: %+v", rt.Stats())
		}
		if _, err := rt.Assess(ctx, req); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

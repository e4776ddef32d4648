package shard

// Passive per-endpoint health tracking: a circuit breaker fed by the
// router's own traffic. Before breakers, the router re-probed a dead
// owner on every request and paid a full dial/attempt timeout each
// time; with them, a node that keeps failing is skipped outright and
// re-probed by exactly one request per cooldown.
//
// State machine:
//
//	closed ──(threshold consecutive failoverable errors)──▶ open
//	open ──(cooldown elapses; next request becomes the probe)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe fails)──▶ open (cooldown restarts)
//
// Only failoverable errors — transport failures, per-attempt timeouts,
// 502/503/504 — count against an endpoint: a deterministic API answer
// (400, 404, job-failed 500) proves the node is alive and resets the
// failure streak. While half-open, exactly one request is admitted as
// the probe; everything else routes around until the probe reports. A
// probe whose caller cancels it (a deadline, or a hedge loser) reports
// nothing about the node, so it only frees its slot for the next
// request.

import (
	"sync"
	"time"
)

type breakerState int32

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker defaults: three consecutive failures open the circuit, and a
// dead endpoint is re-probed twice a second.
const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 500 * time.Millisecond
)

// breaker is one endpoint's circuit. Methods take the caller's clock so
// tests drive transitions with synthetic time.
type breaker struct {
	threshold int
	cooldown  time.Duration
	// onTransition observes every state change (for the transition
	// counter metric); called with the breaker's lock held, so it must
	// not call back into the breaker.
	onTransition func(to breakerState)

	mu          sync.Mutex
	state       breakerState
	consecutive int       // failoverable failures since the last success (closed state)
	openedAt    time.Time // when the circuit last opened
	probing     bool      // half-open: the single probe slot is taken
}

func newBreaker(threshold int, cooldown time.Duration, onTransition func(to breakerState)) *breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown, onTransition: onTransition}
}

func (b *breaker) transitionLocked(to breakerState) {
	b.state = to
	if b.onTransition != nil {
		b.onTransition(to)
	}
}

// allow reports whether a request may be sent to the endpoint now, and
// whether it goes as the probe. Closed always admits; open admits
// nothing until the cooldown elapses, at which point the circuit
// half-opens and admits the caller as the single probe; half-open
// admits only while the probe slot is free. A probe must end in observe
// or, when its caller canceled it, release.
func (b *breaker) allow(now time.Time) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true, false
	case stateOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false, false
		}
		b.transitionLocked(stateHalfOpen)
		b.probing = true
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// release frees the probe slot of a probe that ended without a verdict
// (its caller canceled it), recording neither success nor failure: the
// circuit stays half-open and the next request becomes the probe.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == stateHalfOpen {
		b.probing = false
	}
}

// observe feeds one attempt's outcome back. ok means the endpoint
// answered (including deterministic API errors); !ok means a
// failoverable failure.
func (b *breaker) observe(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		if b.state != stateClosed {
			b.transitionLocked(stateClosed)
		}
		b.consecutive = 0
		b.probing = false
		return
	}
	switch b.state {
	case stateClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.transitionLocked(stateOpen)
			b.openedAt = now
		}
	case stateHalfOpen:
		// The probe failed: back to open, cooldown restarts.
		b.transitionLocked(stateOpen)
		b.openedAt = now
		b.probing = false
	case stateOpen:
		// A straggler admitted before the circuit opened; the clock is
		// not extended — the scheduled re-probe stands.
	}
}

// current returns the state for stats snapshots.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

package serve

// Durability: the optional journal integration (Config.Journal).
//
// Write path: every accepted submission appends its submit record
// (KindSubmit for singles, KindBatchSubmit for changelogs) and every
// terminal state appends a complete record, both while the server mutex
// is held — so a job's submit always precedes its completion in the
// journal, and a completion is journaled before it becomes
// client-visible. Batch jobs additionally journal each computed entry
// under its per-entry digest the moment it lands in the cache, so a
// batch cut short by a crash or hard stop keeps the entries it
// finished.
//
// Read path (boot): replayJournal folds the journal down to each
// digest's final state, then (1) resurrects every completed result as a
// done job record and a cache entry, and (2) re-enqueues every
// submission that never reached a terminal result. Resurrection runs
// first so re-enqueued batches resolve their entries against the
// replayed cache. /readyz serves 503 "replaying" until both passes
// finish. By the determinism contract a replayed result is bit-identical
// to a recomputed one, so replay only ever skips work.
//
// Append errors are logged and counted (litmus_journal_append_errors_total)
// and otherwise ignored: durability is best-effort, serving is not — a
// full disk degrades the journal, never the API.

import (
	"encoding/json"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/journal"
)

// ReplayDone returns a channel closed once boot journal replay has
// finished; it is closed immediately for servers without a journal.
// Callers that need the replayed cache (routers, tests) wait on it
// instead of polling /readyz.
func (s *Server) ReplayDone() <-chan struct{} { return s.replayDone }

// ReplayedResults returns how many completed results boot replay
// repopulated into the result cache.
func (s *Server) ReplayedResults() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayed
}

// journalAppendLocked appends rec to the journal. Callers hold the
// server mutex, which orders the journal exactly like the in-memory
// state transitions it mirrors.
func (s *Server) journalAppendLocked(rec journal.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.reg.Counter(obs.MetricJournalAppendErrors).Add(1)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Error("journal append failed", "kind", rec.Kind.String(), "job", rec.Digest, "error", err)
		}
	}
}

// replayFinal is one digest's folded journal state.
type replayFinal struct {
	submit   []byte // newest submit payload, valid when pending
	batch    bool   // submit is a batch request
	pending  bool   // submitted, no terminal result yet
	result   []byte // newest completed result, valid when done
	degraded bool
	done     bool
}

// replayJournal rebuilds server state from the journal on boot, then
// closes replayDone. It runs concurrently with the HTTP handlers:
// /readyz gates external traffic, and both passes re-check live state
// under the mutex, so a submission that races replay wins — the journal
// only ever adds work, never replaces state.
func (s *Server) replayJournal() {
	defer s.wg.Done()
	defer close(s.replayDone)

	// Fold the record stream down to each digest's final state, exactly
	// like the journal's own compactor: a later submit re-pends a digest,
	// a cancellation keeps it pending, a failure drops it (deterministic
	// failures are neither resurrected nor re-run), a completed result
	// supersedes everything before it.
	states := map[string]*replayFinal{}
	var order []string // first-seen digest order
	err := s.journal.Replay(func(rec journal.Record) error {
		st := states[rec.Digest]
		if st == nil {
			st = &replayFinal{}
			states[rec.Digest] = st
			order = append(order, rec.Digest)
		}
		switch {
		case rec.Kind == journal.KindSubmit || rec.Kind == journal.KindBatchSubmit:
			st.submit, st.batch, st.pending = rec.Payload, rec.Kind == journal.KindBatchSubmit, true
		case rec.Canceled:
			// The work is still pending; the marker itself folds away.
		case rec.Failed:
			st.pending = false
		default:
			st.result, st.degraded, st.done = rec.Payload, rec.Degraded, true
			st.pending = false
		}
		return nil
	})
	if err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Error("journal replay failed", "error", err)
	}

	// Pass 1: resurrect completed results, oldest first so cache recency
	// ends up matching journal order.
	now := time.Now()
	var replayed int
	for _, d := range order {
		st := states[d]
		if !st.done {
			continue
		}
		s.mu.Lock()
		if _, ok := s.jobs[d]; ok {
			s.mu.Unlock()
			continue
		}
		j := newJob(d, nil, now)
		j.state = stateDone
		j.cached = true
		j.degraded = st.degraded
		j.finished = now
		j.result = st.result
		j.traceID = newTraceID()
		close(j.done)
		s.jobs[d] = j
		s.recordFinishedLocked(j)
		s.cache.put(d, cachedResult{result: st.result, degraded: st.degraded})
		s.replayed++
		replayed = s.replayed
		s.mu.Unlock()
		s.reg.Counter(obs.MetricJournalReplayed).Add(1)
	}

	// Pass 2: re-enqueue unfinished work.
	var requeued int
	for _, d := range order {
		st := states[d]
		if !st.pending {
			continue
		}
		if s.replayEnqueue(st.submit, st.batch) {
			requeued++
		}
	}

	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("journal replay complete",
			"replayedResults", replayed, "requeuedJobs", requeued, "dir", s.journal.Dir())
	}
}

// replayEnqueue recompiles one journaled submission and puts it back on
// the queue, waiting for queue space; it gives up only when the server
// starts draining or when live state (a racing submission, a replayed
// result) has already claimed the digest. Entries resolve against the
// cache at enqueue time — replayed results count as hits, so a
// re-enqueued batch only recomputes what the crash actually lost.
func (s *Server) replayEnqueue(payload []byte, batch bool) bool {
	var sub *submission
	var err error
	if batch {
		var req BatchAssessRequest
		if err = json.Unmarshal(payload, &req); err == nil {
			sub, err = compileBatch(&req)
		}
	} else {
		var req AssessRequest
		if err = json.Unmarshal(payload, &req); err == nil {
			sub, err = compileSingle(&req)
		}
	}
	if err != nil {
		return false
	}

	j := newJob(sub.id, sub, time.Time{})
	j.traceID = newTraceID()
	for {
		s.mu.Lock()
		if s.draining || s.queueClosed {
			s.mu.Unlock()
			return false
		}
		if _, ok := s.jobs[sub.id]; ok {
			s.mu.Unlock()
			return false
		}
		if _, ok := s.cache.get(sub.id); ok {
			s.mu.Unlock()
			return false
		}
		select {
		case s.queue <- j:
			// The worker cannot touch j until the mutex is released.
			j.submitted = time.Now()
			j.resolved, j.pending = s.resolveLocked(sub)
			s.jobs[sub.id] = j
			s.mu.Unlock()
			return true
		default:
		}
		s.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
}

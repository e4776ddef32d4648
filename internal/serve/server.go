package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/journal"

	litmus "repro"
)

// Config parameterizes the assessment service. The zero value is usable:
// every field falls back to the documented default.
type Config struct {
	// QueueDepth bounds the submission queue (default 64). A full queue
	// rejects submissions with 429 and a Retry-After hint — backpressure
	// instead of unbounded memory growth.
	QueueDepth int
	// Workers is the number of concurrent assessment jobs (default 2).
	// Each job additionally fans its sampling iterations out over the
	// assessor's own worker pool.
	Workers int
	// CacheSize bounds the LRU result cache (default 256 results).
	CacheSize int
	// JobRetention bounds how many finished job records stay queryable
	// (default 1024; oldest finished jobs are forgotten first — their
	// results may still live in the cache).
	JobRetention int
	// JobTimeout is the per-job execution deadline (default 5m). The
	// deadline propagates through Pipeline.AssessBatch, so a stuck job
	// stops between sampling iterations.
	JobTimeout time.Duration
	// RetryAfter is the backoff hint returned with 429 (default 1s).
	RetryAfter time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Journal, when non-nil, makes jobs durable: every submission and
	// completion is appended to the journal, and on boot the server
	// replays it — completed results repopulate the result cache and
	// unfinished jobs are re-enqueued (see durability.go). The caller
	// owns the journal's lifecycle: Open it before New, Close it after
	// Shutdown returns. /readyz reports 503 "replaying" until replay
	// finishes.
	Journal *journal.Journal
	// Registry receives the service and engine metrics (default: a fresh
	// registry, exposed on /metrics either way).
	Registry *obs.Registry
	// Logger receives structured request and job-lifecycle logs
	// (log/slog). Nil disables logging — the default; the service never
	// writes to stderr on its own.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.JobRetention == 0 {
		c.JobRetention = 1024
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the Litmus assessment service: HTTP API, bounded job queue,
// worker pool, LRU result cache. Create with New, mount Handler, stop
// with Shutdown.
type Server struct {
	cfg Config
	reg *obs.Registry
	mux *http.ServeMux

	baseCtx    context.Context
	cancelBase context.CancelFunc

	// journal is the optional durability layer; replayDone is closed
	// once boot replay has finished (immediately when there is no
	// journal) and gates /readyz.
	journal    *journal.Journal
	replayDone chan struct{}

	mu          sync.Mutex
	jobs        map[string]*job
	finished    *list.List // job ids in completion order, oldest first
	cache       *lruCache
	queue       chan *job
	draining    bool
	queueClosed bool
	replayed    int // completed results repopulated by boot replay

	wg sync.WaitGroup

	// Test hooks: when testStarted is non-nil, runJob announces the job
	// id on it and then blocks on testRelease before executing — tests
	// use this to hold workers and fill the queue deterministically.
	// When testExecute is non-nil it replaces the assessment body of
	// executeJob (panic recovery still applies) — tests use it to inject
	// panics, failures and degradations.
	// Set between newServer and start only.
	testStarted chan string
	testRelease chan struct{}
	testExecute func(ctx context.Context, j *job) (result []byte, degraded bool, failures []litmus.AssessmentFailureDoc, err error)
}

// New returns a running server: workers are started immediately; the
// returned server's Handler can be mounted on any http.Server.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.start()
	return s
}

func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		mux:      http.NewServeMux(),
		jobs:     make(map[string]*job),
		finished: list.New(),
		cache:    newLRUCache(cfg.CacheSize),
		queue:    make(chan *job, cfg.QueueDepth),
	}
	s.journal = cfg.Journal
	s.replayDone = make(chan struct{})
	if s.journal == nil {
		close(s.replayDone)
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.routes()
	return s
}

func (s *Server) start() {
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	if s.journal != nil {
		s.wg.Add(1)
		go s.replayJournal()
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry the service records into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) routes() {
	s.route("POST /v1/assess", s.handleSubmit)
	s.route("POST /v1/assess/batch", s.handleSubmitBatch)
	s.route("GET /v1/jobs/{id}", s.handleJob)
	s.route("GET /v1/jobs/{id}/result", s.handleResult)
	s.route("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// statusWriter captures the response code for the request counter, plus
// the job and trace identities a handler annotates for the access log.
type statusWriter struct {
	http.ResponseWriter
	code    int
	jobID   string
	traceID string
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// annotate attaches the job and trace identity of the request to the
// access-log record. Handlers call it once the job is known; outside the
// route middleware (direct handler tests) it is a no-op.
func annotate(w http.ResponseWriter, jobID, traceID string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.jobID, sw.traceID = jobID, traceID
	}
}

// route mounts a handler with per-route request counting (labeled by
// route pattern and status code) and structured access logging.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.reg.Counter(obs.Labeled(obs.MetricHTTPRequests,
			"path", pattern, "code", strconv.Itoa(sw.code))).Add(1)
		if s.cfg.Logger != nil {
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"route", pattern,
				"code", sw.code,
				"durationMs", float64(time.Since(start)) / float64(time.Millisecond),
			}
			if sw.jobID != "" {
				attrs = append(attrs, "job", sw.jobID)
			}
			if sw.traceID != "" {
				attrs = append(attrs, "traceId", sw.traceID)
			}
			s.cfg.Logger.Info("http request", attrs...)
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, APIError{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds POST bodies; assessment requests are a few KB.
const maxRequestBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req AssessRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	sub, err := compileSingle(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	s.submit(w, r, sub, func(status string, cached bool, _ map[string]cachedResult) any {
		return SubmitResponse{ID: sub.id, Status: status, Cached: cached}
	})
}

// submission is one validated submit body of either endpoint: the job
// id, the changelog it assesses in submission order — a single
// submission is a changelog of one entry whose digest is the job id —
// and the journal record that makes the submission durable.
type submission struct {
	id      string
	single  bool
	entries []batchDocEntry // submission order
	unique  []compiledEntry // distinct valid entries, first-seen order
	record  journal.Record  // the submit record
}

// compileSingle validates a single submission as a one-entry changelog.
// The journal payload is the canonical request, which compiles back to
// the same job id on replay.
func compileSingle(req *AssessRequest) (*submission, error) {
	c, err := compile(req)
	if err != nil {
		return nil, err
	}
	payload := c.canonicalJSON()
	id := canonicalID(payload)
	return &submission{
		id:      id,
		single:  true,
		entries: []batchDocEntry{{digest: id, changeID: c.norm.Change.ID}},
		unique:  []compiledEntry{{digest: id, req: c}},
		record:  journal.Record{Kind: journal.KindSubmit, Digest: id, Payload: payload},
	}, nil
}

// resolveLocked splits sub's unique entries into those answered by
// finished jobs or the result cache and those still to compute. Callers
// hold the server mutex: the resolution describes this moment, and a
// queued job carries the resolved bytes so eviction cannot outrun it.
func (s *Server) resolveLocked(sub *submission) (map[string]cachedResult, []compiledEntry) {
	resolved := map[string]cachedResult{}
	var pending []compiledEntry
	for _, e := range sub.unique {
		if j, ok := s.jobs[e.digest]; ok && j.state == stateDone {
			resolved[e.digest] = cachedResult{result: j.result, degraded: j.degraded}
		} else if cr, ok := s.cache.get(e.digest); ok {
			resolved[e.digest] = cr
		} else {
			pending = append(pending, e)
		}
	}
	return resolved, pending
}

// submit is the submission state machine both submit endpoints share. A
// done or in-flight job with the same id answers the submission (a
// cache hit, or dedup onto the running work); a failed one is rerun; a
// result still cached after its job record aged out is resurrected as a
// done job; anything else enqueues a fresh job. render builds the
// endpoint's response body from the job status at submit time, whether
// the answer came from existing work, and the submit-time entry
// resolution.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, sub *submission, render func(status string, cached bool, resolved map[string]cachedResult) any) {
	id := sub.id
	now := time.Now()
	// Trace identity: adopt the caller's traceparent, or mint one. Jobs
	// that already exist keep the trace of the submission that caused
	// the work — the response header tells this caller which trace the
	// job belongs to.
	traceID, ok := parseTraceparent(r.Header.Get(traceparentHeader))
	if !ok {
		traceID = newTraceID()
	}

	s.mu.Lock()
	resolved, pending := s.resolveLocked(sub)
	j := s.jobs[id]
	if j != nil && j.state != stateFailed {
		// Same canonical submission, already done or in flight: the
		// result bytes are identical by the determinism contract, so
		// answer from the existing job instead of queueing duplicate work.
		status, jobTrace, code := j.state, j.traceID, http.StatusAccepted
		if status == stateDone {
			s.cache.get(id) // refresh recency
			code = http.StatusOK
		}
		s.mu.Unlock()
		s.reg.Counter(obs.MetricCacheHits).Add(1)
		respond(w, code, id, jobTrace, render(status, true, resolved))
		return
	}
	if j == nil {
		if hit, ok := s.cache.get(id); ok {
			// The job record aged out but the result is still cached:
			// resurrect a done job around the cached bytes.
			j = newJob(id, sub, now)
			j.resolved = resolved
			j.state = stateDone
			j.cached = true
			j.degraded = hit.degraded
			j.finished = now
			j.result = hit.result
			j.traceID = traceID
			close(j.done)
			s.jobs[id] = j
			s.recordFinishedLocked(j)
			s.mu.Unlock()
			s.reg.Counter(obs.MetricCacheHits).Add(1)
			respond(w, http.StatusOK, id, traceID, render(stateDone, true, resolved))
			return
		}
		j = newJob(id, sub, now)
		if !s.enqueueLocked(w, j, now) {
			return
		}
		s.jobs[id] = j
		s.reg.Counter(obs.MetricCacheHits).Add(int64(len(resolved)))
		s.reg.Counter(obs.MetricCacheMisses).Add(int64(len(pending)))
	} else {
		// A failed job reruns on resubmit (the failure may have been a
		// timeout or a drain-time cancellation). The record is reset only
		// once the enqueue succeeds: a fresh done channel (the old one is
		// closed), cleared lifecycle fields, and removal from the finished
		// order so retention cannot evict the job while it is back in
		// flight. On the 429 path the job is left failed and resubmittable.
		if !s.enqueueLocked(w, j, now) {
			return
		}
		j.done = make(chan struct{})
		j.started = time.Time{}
		j.finished = time.Time{}
		j.result = nil
		j.degraded = false
		j.span, j.failures = nil, nil
		if j.finishedElem != nil {
			s.finished.Remove(j.finishedElem)
			j.finishedElem = nil
		}
	}
	// The run belongs to this submitter's trace, and carries this
	// submission's entry resolution — the cache may have filled since a
	// failed run.
	j.traceID = traceID
	j.pending, j.resolved = pending, resolved
	s.journalAppendLocked(sub.record)
	s.mu.Unlock()
	respond(w, http.StatusAccepted, id, traceID, render(stateQueued, false, resolved))
}

// respond writes a submit response naming job id under traceID.
func respond(w http.ResponseWriter, code int, id, traceID string, body any) {
	annotate(w, id, traceID)
	setTraceparent(w, traceID)
	writeJSON(w, code, body)
}

// enqueueLocked pushes j onto the bounded queue, mutating the job only
// once the send succeeds — a rejected job keeps its previous state, so
// a failed job stays resubmittable instead of being wedged as "queued".
// It is called with the server mutex held; on the backpressure and
// draining paths it writes the error response itself (releasing the
// mutex first) and returns false. A worker may receive j as soon as the
// send succeeds, but cannot touch it until the mutex is released.
func (s *Server) enqueueLocked(w http.ResponseWriter, j *job, now time.Time) bool {
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return false
	}
	select {
	case s.queue <- j:
		j.state = stateQueued
		j.submitted = now
		j.err = ""
		s.reg.Gauge(obs.MetricQueueDepth).Set(float64(len(s.queue)))
		return true
	default:
		s.mu.Unlock()
		s.reg.Counter(obs.MetricQueueRejected).Add(1)
		retry := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "submission queue full (%d jobs); retry after %ds", s.cfg.QueueDepth, retry)
		return false
	}
}

// recordFinishedLocked marks j finished: it moves the job to the back
// of the finished order (appending on first finish) and forgets the
// oldest finished jobs beyond the retention bound. Element tracking
// keeps each job in the order at most once, so re-finishes (cache
// resurrection, failed-job reruns) refresh recency instead of
// duplicating entries.
func (s *Server) recordFinishedLocked(j *job) {
	if j.finishedElem != nil {
		s.finished.MoveToBack(j.finishedElem)
	} else {
		j.finishedElem = s.finished.PushBack(j.id)
	}
	for s.finished.Len() > s.cfg.JobRetention {
		oldest := s.finished.Front()
		s.finished.Remove(oldest)
		delete(s.jobs, oldest.Value.(string))
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st JobStatus
	if ok {
		st = j.status()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	annotate(w, id, st.TraceID)
	setTraceparent(w, st.TraceID)
	writeJSON(w, http.StatusOK, st)
}

// MaxResultWait caps the wait of GET /v1/jobs/{id}/result?wait=<d>; a
// longer wait is served as the cap. It bounds how long one request
// holds a connection and a handler goroutine.
const MaxResultWait = 30 * time.Second

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Has("wait") {
		s.waitResult(w, r, id)
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state string
	var result []byte
	var errMsg string
	if ok {
		state, result, errMsg = j.state, j.result, j.err
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	case state == stateDone:
		writeResult(w, result)
	case state == stateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	default:
		writeError(w, http.StatusConflict, "job %s is %s; poll /v1/jobs/%s until done, or fetch /v1/jobs/%s/result?wait=30s", id, state, id, id)
	}
}

// writeResult answers 200 with a finished job's result bytes.
func writeResult(w http.ResponseWriter, result []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(result)
}

// resultWait parses the ?wait value of a result fetch: a non-negative
// Go duration, capped at MaxResultWait.
func resultWait(v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("invalid wait %q: want a non-negative duration such as 30s", v)
	}
	return min(d, MaxResultWait), nil
}

// waitResult serves GET /v1/jobs/{id}/result?wait=<d>: the result bytes
// (200) or the failure (500) as soon as the job reaches a terminal
// state, exactly as a plain fetch would answer then, or the job's
// status (202) once the wait — capped at MaxResultWait — expires first.
// The waiter holds the job record itself, so retention evicting the job
// after it finished cannot lose the result, and a job whose record has
// already aged out is answered from the result cache while it holds
// the bytes. A failed job resubmitted before the waiter looks again is
// waited on afresh. A waiter whose client went away returns at once,
// and a hard stop of the server (its base context canceled) answers
// 503 to every waiter.
func (s *Server) waitResult(w http.ResponseWriter, r *http.Request, id string) {
	wait, err := resultWait(r.URL.Query().Get("wait"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()

	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		hit, cached := s.cache.get(id)
		s.mu.Unlock()
		if cached {
			writeResult(w, hit.result)
		} else {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
		}
		return
	}
	for {
		state, result, errMsg, done := j.state, j.result, j.err, j.done
		s.mu.Unlock()
		switch state {
		case stateDone:
			writeResult(w, result)
			return
		case stateFailed:
			writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
			return
		}
		select {
		case <-done:
			// Terminal now, or failed and already resubmitted: look again.
			s.mu.Lock()
		case <-timer.C:
			s.mu.Lock()
			st := j.status()
			s.mu.Unlock()
			annotate(w, id, st.TraceID)
			setTraceparent(w, st.TraceID)
			writeJSON(w, http.StatusAccepted, st)
			return
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	depth := len(s.queue)
	replayed := s.replayed
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case <-s.replayDone:
	default:
		// Boot replay is still repopulating the cache: not ready yet.
		// The count is live, so pollers see replay progress.
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":          "replaying",
			"replayedResults": replayed,
		})
		return
	}
	body := map[string]any{
		"status":     "ready",
		"queueDepth": depth,
		"queueCap":   s.cfg.QueueDepth,
	}
	if s.journal != nil {
		body["replayedResults"] = replayed
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

// worker consumes the queue until it is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one assessment under the per-job deadline and the
// server's base context (canceled on hard shutdown).
func (s *Server) runJob(j *job) {
	s.reg.Gauge(obs.MetricQueueDepth).Set(float64(len(s.queue)))
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()

	s.mu.Lock()
	j.state = stateRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.submitted)
	traceID := j.traceID
	s.mu.Unlock()

	if s.testStarted != nil {
		s.testStarted <- j.id
		<-s.testRelease
	}

	jr, err := s.executeJob(ctx, j)

	statusLabel := stateDone
	switch {
	case err != nil:
		statusLabel = stateFailed
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			statusLabel = "canceled"
		}
	case jr.degraded:
		statusLabel = "degraded"
	}

	s.mu.Lock()
	j.finished = time.Now()
	j.pending = nil // the work is done; its compiled requests can go
	j.span = jr.span
	j.failures = jr.failures
	// Journal the terminal state before it becomes client-visible: a
	// crash after the state flips but before the append could otherwise
	// lose a result a client already saw. Cancellations keep the digest
	// pending in the journal, so replay re-enqueues the work.
	if err != nil {
		rec := journal.Record{Kind: journal.KindComplete, Digest: j.id, Payload: []byte(err.Error())}
		if statusLabel == "canceled" {
			rec.Canceled = true
		} else {
			rec.Failed = true
		}
		s.journalAppendLocked(rec)
		j.state = stateFailed
		j.err = err.Error()
	} else {
		s.journalAppendLocked(journal.Record{Kind: journal.KindComplete, Digest: j.id, Degraded: jr.degraded, Payload: jr.result})
		j.state = stateDone
		j.degraded = jr.degraded
		j.result = jr.result
		s.cache.put(j.id, cachedResult{result: jr.result, degraded: jr.degraded})
	}
	s.recordFinishedLocked(j)
	latency := j.finished.Sub(j.submitted)
	run := j.finished.Sub(j.started)
	// Close under the mutex so the close pairs with the done channel
	// this run owned — a resubmit of a failed job swaps in a fresh
	// channel only between terminal states, never mid-run.
	close(j.done)
	s.mu.Unlock()

	s.reg.Counter(obs.Labeled(obs.MetricJobs, "status", statusLabel)).Add(1)
	s.reg.Histogram(obs.MetricJobSeconds, obs.StageBuckets).Observe(latency.Seconds())
	s.reg.Histogram(obs.MetricJobQueueSeconds, obs.StageBuckets).Observe(queueWait.Seconds())
	s.reg.Histogram(obs.MetricJobRunSeconds, obs.StageBuckets).Observe(run.Seconds())

	if s.cfg.Logger != nil {
		attrs := []any{
			"job", j.id,
			"traceId", traceID,
			"status", statusLabel,
			"queueSeconds", queueWait.Seconds(),
			"runSeconds", run.Seconds(),
		}
		if err != nil {
			attrs = append(attrs, "error", err.Error())
			s.cfg.Logger.Error("job finished", attrs...)
		} else {
			s.cfg.Logger.Info("job finished", attrs...)
		}
	}
}

// Shutdown gracefully drains the service: submissions are rejected with
// 503, queued and in-flight jobs keep running until done or until ctx
// expires — at which point the per-job contexts are canceled and the
// workers stop between sampling iterations. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.queueClosed {
		s.draining = true
		s.queueClosed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Hard stop: cancel every in-flight job context; the engine's
		// between-iteration checks make the workers exit promptly.
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}

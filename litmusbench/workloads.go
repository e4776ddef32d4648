package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/changelog"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/shard"

	litmus "repro"
)

// Workload sizes.
const (
	fixtureResults = 128 // serve-compute: completed results in the boot journal
	warmups        = 16  // serve-compute: computed (and replayed) requests per set-up warm-up
	workingSet     = 320 // routed-hits: distinct requests (one node caches 256)
	routedNodes    = 3
	checkEvery     = 16      // one op in checkEvery is checked in-process
	checkMax       = 16      // at most this many in-process checks per run
	warmBatches    = 6       // batch-changelog: batches per set-up warm-up
	warmBatch      = 1 << 20 // first batch number of the warm-up batches
)

// env is what every workload of a run shares.
type env struct {
	seed   int64
	topo   *topology
	golden []byte
	dir    string // the run's scratch directory
	hc     *http.Client

	mu      sync.Mutex
	notes   []string  // failed output checks outside the timed ops
	replays []float64 // journal replay seconds, one per set-up
}

// fail records a failed output check.
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

func (e *env) failures() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.notes)
}

func (e *env) failureNotes() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.notes...)
}

// checkGolden compares a served golden answer with the fixture.
func (e *env) checkGolden(b []byte, err error) (attempted, failed int) {
	if err != nil {
		e.fail("golden request: %v", err)
		return 1, 1
	}
	if !bytes.Equal(append(b, '\n'), e.golden) {
		e.fail("golden request: answer differs from testdata/golden_assessment.json")
		return 1, 1
	}
	return 1, 0
}

// workload is one benchmark workload.
type workload interface {
	// prepare makes the run's fixed inputs before the timed set-ups.
	prepare(ctx context.Context) error
	// setup boots the system, waits until it is ready and warms it up;
	// k counts the set-ups of the run.
	setup(ctx context.Context, k int) error
	// teardown stops everything setup started.
	teardown() error
	// op is one closed-loop call through the public client or router.
	op(ctx context.Context) (int, error)
	// tracedOp is op decomposed into spans under an "op" root.
	tracedOp(ctx context.Context, t *tracer) (int, error)
	// replay runs the workload's i-th request through the engine's
	// layers in-process, checking it against the served answer.
	replay(ctx context.Context, r *replayer, i int) error
	// verify sends the golden request and runs the post-run in-process
	// checks.
	verify(ctx context.Context) (attempted, failed int)
	// counters reads the system's registries and router.
	counters() counts
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "serve-compute":
		return &serveCompute{e: e, kept: map[int][]byte{}}, nil
	case "routed-hits":
		return &routedHits{e: e}, nil
	case "batch-changelog":
		return &batchChangelog{e: e, sigs: e.topo.signatures(e.seed), kept: map[int][]byte{}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve-compute, routed-hits or batch-changelog)", name)
}

// counts are cumulative counters of the system under test.
type counts struct {
	hits, misses, rejected, jobs, appends int64
	iterations, beforeFact                int64
	factReused, panelsShared              int64
	routed, failovers, skips, hedges      int64
	journalSeq                            map[string]int
	journalSize                           map[string]int64
}

// nodeCounts sums the registry counters of nodes and reads their
// journal positions.
func nodeCounts(nodes []*node, journalDirs []string) counts {
	var c counts
	for _, n := range nodes {
		snap := n.reg.Snapshot()
		c.hits += counter(snap, obs.MetricCacheHits)
		c.misses += counter(snap, obs.MetricCacheMisses)
		c.rejected += counter(snap, obs.MetricQueueRejected)
		c.jobs += counter(snap, obs.MetricJobs)
		c.appends += counter(snap, obs.MetricJournalAppends)
		c.iterations += counter(snap, obs.MetricIterations)
		c.beforeFact += counter(snap, obs.MetricBeforeFactorizations)
		c.factReused += counter(snap, obs.MetricBatchFactorizationsReused)
		c.panelsShared += counter(snap, obs.MetricBatchPanelsShared)
	}
	c.journalSeq, c.journalSize = map[string]int{}, map[string]int64{}
	for _, d := range journalDirs {
		seq, size, err := journalPosition(d)
		if err != nil {
			logf("reading journal %s: %v", d, err)
		}
		c.journalSeq[d], c.journalSize[d] = seq, size
	}
	return c
}

// journalDelta is the journal bytes written between two readings.
func journalDelta(a, b counts) int64 {
	var total int64
	for d, seq := range b.journalSeq {
		total += journalWritten(a.journalSeq[d], a.journalSize[d], seq, b.journalSize[d])
	}
	return total
}

// parallel runs fn(0..n-1) on two goroutines and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// assessInProcess computes a request's assessment in-process, with no
// instrumentation, and marshals it.
func assessInProcess(ctx context.Context, q *serve.AssessRequest) ([]byte, error) {
	ks, err := kpis()
	if err != nil {
		return nil, err
	}
	net := netsim.Build(topoConfig())
	change, err := changeOf(q.Change)
	if err != nil {
		return nil, err
	}
	g := generator(net, q.Generator.Seed, change.Effect(net))
	res, err := pipeline(net, genProvider(net, g), nil).AssessChangeContext(ctx, change, ks, windowDays)
	if err != nil {
		return nil, err
	}
	return litmus.MarshalAssessment(res)
}

// checkKept compares kept served answers with in-process computations,
// at most checkMax of them in index order.
func checkKept(ctx context.Context, e *env, kept map[int][]byte, req func(i int) *serve.AssessRequest, form func([]byte) []byte) (failed int) {
	idx := make([]int, 0, len(kept))
	for i := range kept {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if len(idx) > checkMax {
		idx = idx[:checkMax]
	}
	for _, i := range idx {
		want, err := assessInProcess(ctx, req(i))
		if err != nil {
			e.fail("in-process check of op %d: %v", i, err)
			failed++
			continue
		}
		if form != nil {
			want = form(want)
		}
		if !bytes.Equal(kept[i], want) {
			e.fail("op %d: served answer differs from the in-process assessment", i)
			failed++
		}
	}
	return failed
}

// embedded is a canonical assessment document as a batch result
// document carries it: re-encoded by encoding/json as a raw message
// (compacted, HTML-escaped).
func embedded(doc []byte) []byte {
	b, err := json.Marshal(json.RawMessage(doc))
	if err != nil {
		return nil // not JSON: compares unequal to any served entry
	}
	return b
}

// keep stores a sampled op's answer for the post-run check.
func keep(mu *sync.Mutex, kept map[int][]byte, i int, b []byte) {
	mu.Lock()
	defer mu.Unlock()
	if len(kept) < checkMax {
		kept[i] = b
	}
}

// ---- serve-compute ----

// serveCompute drives one durable node with golden-style requests on
// fresh generator seeds: every request is computed.
type serveCompute struct {
	e       *env
	fixture string
	fixed   [][]byte // the fixture's results, by fixture index
	n       *node
	c       *client.Client
	next    atomic.Int64
	mu      sync.Mutex
	kept    map[int][]byte
}

func (s *serveCompute) prepare(ctx context.Context) error {
	s.fixture = filepath.Join(s.e.dir, "fixture")
	n, err := startNode(s.fixture)
	if err != nil {
		return err
	}
	c := newClient(n, s.e.hc)
	s.fixed = make([][]byte, fixtureResults)
	err = parallel(fixtureResults, func(i int) error {
		b, err := c.Assess(ctx, s.e.topo.computeRequest(s.e.seed, streamFixture, i))
		s.fixed[i] = b
		return err
	})
	if serr := n.stop(); err == nil {
		err = serr
	}
	return err
}

func (s *serveCompute) setup(ctx context.Context, k int) error {
	dir := filepath.Join(s.e.dir, fmt.Sprintf("node-%d", k))
	if err := copyDir(s.fixture, dir); err != nil {
		return err
	}
	t0 := time.Now()
	n, err := startNode(dir)
	if err != nil {
		return err
	}
	s.n, s.c = n, newClient(n, s.e.hc)
	if err := n.ready(ctx, s.c); err != nil {
		return err
	}
	s.e.mu.Lock()
	s.e.replays = append(s.e.replays, time.Since(t0).Seconds())
	s.e.mu.Unlock()
	if got := n.srv.ReplayedResults(); got != fixtureResults {
		s.e.fail("journal replay restored %d results, want %d", got, fixtureResults)
	}
	return parallel(2*warmups, func(i int) error {
		if i%2 == 0 { // a replayed result: must be served from the cache, unchanged
			j := (k*warmups + i/2) % fixtureResults
			b, err := s.c.Assess(ctx, s.e.topo.computeRequest(s.e.seed, streamFixture, j))
			if err == nil && !bytes.Equal(b, s.fixed[j]) {
				s.e.fail("replayed result %d differs from the bytes journaled", j)
			}
			return err
		}
		_, err := s.c.Assess(ctx, s.e.topo.computeRequest(s.e.seed, streamFixture, fixtureResults+k*warmups+i/2))
		return err
	})
}

func (s *serveCompute) teardown() error {
	if s.n == nil {
		return nil
	}
	err := s.n.stop()
	s.n = nil
	return err
}

func (s *serveCompute) request(i int) *serve.AssessRequest {
	return s.e.topo.computeRequest(s.e.seed, streamCompute, i)
}

func (s *serveCompute) op(ctx context.Context) (int, error) {
	i := int(s.next.Add(1) - 1)
	b, err := s.c.Assess(ctx, s.request(i))
	if err == nil && sampled(s.e.seed, i, checkEvery) {
		keep(&s.mu, s.kept, i, b)
	}
	return 1, err
}

func (s *serveCompute) tracedOp(ctx context.Context, t *tracer) (int, error) {
	i := int(s.next.Add(1) - 1)
	root := t.start("op", 0, int64(i+1))
	b, err := assessTraced(ctx, t, root.id, int64(i+1), s.c, s.request(i))
	end := root.end()
	t.observe("op.wall", ms(end.Sub(root.start)))
	t.observe("client.path_ops", 1)
	if err == nil && sampled(s.e.seed, i, checkEvery) {
		keep(&s.mu, s.kept, i, b)
	}
	return 1, err
}

func (s *serveCompute) replay(ctx context.Context, r *replayer, i int) error {
	i %= max(int(s.next.Load()), 1)
	q := s.request(i)
	b, err := r.single(ctx, q)
	if err != nil {
		return err
	}
	s.mu.Lock()
	served, ok := s.kept[i]
	s.mu.Unlock()
	if ok && !bytes.Equal(b, served) {
		s.e.fail("op %d: served answer differs from the in-process replay", i)
	}
	return r.batchOfOne(ctx, q)
}

func (s *serveCompute) verify(ctx context.Context) (int, int) {
	att, failed := s.e.checkGolden(s.c.Assess(ctx, s.e.topo.goldenRequest()))
	s.mu.Lock()
	kept := s.kept
	s.mu.Unlock()
	return att, failed + checkKept(ctx, s.e, kept, s.request, nil)
}

func (s *serveCompute) counters() counts {
	return nodeCounts([]*node{s.n}, []string{s.n.jr.Dir()})
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ---- routed-hits ----

// routedHits drives three nodes behind a hedging router over a working
// set that one node's cache cannot hold but the ring's can, warmed
// during set-up: the timed calls are cache hits.
type routedHits struct {
	e       *env
	nodes   []*node
	rt      *shard.Router
	direct  map[string]*client.Client // by node URL, for the direct path
	set     []*serve.AssessRequest
	digests []string
	want    [][]byte // each member's answer from the first warm-up
	next    atomic.Int64
}

func (h *routedHits) prepare(context.Context) error {
	h.set = make([]*serve.AssessRequest, workingSet)
	h.digests = make([]string, workingSet)
	for i := range h.set {
		h.set[i] = h.e.topo.computeRequest(h.e.seed, streamWorking, i)
		d, err := serve.CanonicalJobID(h.set[i])
		if err != nil {
			return err
		}
		h.digests[i] = d
	}
	return nil
}

func (h *routedHits) setup(ctx context.Context, k int) error {
	var urls []string
	h.direct = map[string]*client.Client{}
	for i := 0; i < routedNodes; i++ {
		n, err := startNode("")
		if err != nil {
			return err
		}
		h.nodes = append(h.nodes, n)
		urls = append(urls, n.url)
		h.direct[n.url] = newClient(n, h.e.hc)
	}
	rt, err := shard.NewRouter(urls, shard.RouterOptions{HTTPClient: h.e.hc, PollInterval: pollInterval, Hedge: true})
	if err != nil {
		return err
	}
	h.rt = rt
	if err := rt.WaitReady(ctx); err != nil {
		return err
	}
	first := h.want == nil
	if first {
		h.want = make([][]byte, workingSet)
	}
	return parallel(workingSet, func(i int) error {
		b, err := rt.Assess(ctx, h.set[i])
		if err != nil {
			return err
		}
		if first {
			h.want[i] = b
		} else if !bytes.Equal(b, h.want[i]) {
			h.e.fail("working-set member %d: set-up %d computed different bytes", i, k)
		}
		return nil
	})
}

func (h *routedHits) teardown() error {
	var errs []error
	for _, n := range h.nodes {
		errs = append(errs, n.stop())
	}
	h.nodes, h.rt = nil, nil
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// member is the working-set member op i asks for.
func (h *routedHits) member(i int) int {
	return int(mix(h.e.seed, streamClient, i) % workingSet)
}

func (h *routedHits) check(m int, b []byte, err error) error {
	if err == nil && !bytes.Equal(b, h.want[m]) {
		err = fmt.Errorf("working-set member %d: answer differs from its warm-up bytes", m)
	}
	return err
}

func (h *routedHits) op(ctx context.Context) (int, error) {
	m := h.member(int(h.next.Add(1) - 1))
	b, err := h.rt.Assess(ctx, h.set[m])
	return 1, h.check(m, b, err)
}

// tracedOp alternates between the router and a direct client call to
// the member's ring owner; the difference of their medians is the
// router's overhead.
func (h *routedHits) tracedOp(ctx context.Context, t *tracer) (int, error) {
	i := int(h.next.Add(1) - 1)
	m := h.member(i)
	req := int64(i + 1)
	root := t.start("op", 0, req)
	var b []byte
	var err error
	name := "op.router"
	if i%2 == 0 {
		s := t.start("shard.assess", root.id, req)
		b, err = h.rt.Assess(ctx, h.set[m])
		s.end()
	} else {
		name = "op.direct"
		b, err = assessTraced(ctx, t, root.id, req, h.direct[h.rt.Ring().Owner(h.digests[m])], h.set[m])
		t.observe("client.path_ops", 1)
	}
	end := root.end()
	t.observe(name, ms(end.Sub(root.start)))
	return 1, h.check(m, b, err)
}

func (h *routedHits) replay(ctx context.Context, r *replayer, i int) error {
	m := h.member(i)
	b, err := r.single(ctx, h.set[m])
	if err != nil {
		return err
	}
	if !bytes.Equal(b, h.want[m]) {
		h.e.fail("working-set member %d: served answer differs from the in-process replay", m)
	}
	return r.batchOfOne(ctx, h.set[m])
}

func (h *routedHits) verify(ctx context.Context) (int, int) {
	return h.e.checkGolden(h.rt.Assess(ctx, h.e.topo.goldenRequest()))
}

func (h *routedHits) counters() counts {
	c := nodeCounts(h.nodes, nil)
	st := h.rt.Stats()
	for _, n := range st.Routed {
		c.routed += n
	}
	c.failovers, c.skips, c.hedges = st.Failovers, st.BreakerSkips, st.Hedges
	return c
}

// ---- batch-changelog ----

// batchChangelog drives one durable node with changelog batches, each on
// its own generator seed over a bounded set of (study, change time)
// signatures: every entry is computed.
type batchChangelog struct {
	e    *env
	sigs []signature
	n    *node
	c    *client.Client
	next atomic.Int64
	mu   sync.Mutex
	kept map[int][]byte // by entry number j*batchEntries+e
}

func (b *batchChangelog) prepare(context.Context) error { return nil }

func (b *batchChangelog) setup(ctx context.Context, k int) error {
	t0 := time.Now()
	n, err := startNode(filepath.Join(b.e.dir, fmt.Sprintf("batch-%d", k)))
	if err != nil {
		return err
	}
	b.n, b.c = n, newClient(n, b.e.hc)
	if err := n.ready(ctx, b.c); err != nil {
		return err
	}
	b.e.mu.Lock()
	b.e.replays = append(b.e.replays, time.Since(t0).Seconds())
	b.e.mu.Unlock()
	return parallel(warmBatches, func(i int) error {
		_, err := b.call(ctx, warmBatch+warmBatches*k+i, nil)
		return err
	})
}

func (b *batchChangelog) teardown() error {
	if b.n == nil {
		return nil
	}
	err := b.n.stop()
	b.n = nil
	return err
}

// call submits batch j through the client (or its traced decomposition)
// and checks every entry came back assessed.
func (b *batchChangelog) call(ctx context.Context, j int, assess func(*serve.BatchAssessRequest) (*serve.BatchResultDoc, error)) (int, error) {
	req := batchRequest(b.e.seed, b.sigs, j)
	if assess == nil {
		assess = func(r *serve.BatchAssessRequest) (*serve.BatchResultDoc, error) { return b.c.AssessBatch(ctx, r) }
	}
	doc, err := assess(req)
	if err != nil {
		return batchEntries, err
	}
	if len(doc.Entries) != len(req.Changes) {
		return batchEntries, fmt.Errorf("batch %d: %d entries answered, %d sent", j, len(doc.Entries), len(req.Changes))
	}
	for e, ent := range doc.Entries {
		if ent.Error != "" || len(ent.Assessment) == 0 {
			return batchEntries, fmt.Errorf("batch %d entry %d: not assessed: %s", j, e, ent.Error)
		}
		if id := j*batchEntries + e; j < warmBatch && sampled(b.e.seed, id, checkEvery) {
			keep(&b.mu, b.kept, id, ent.Assessment)
		}
	}
	return batchEntries, nil
}

func (b *batchChangelog) op(ctx context.Context) (int, error) {
	return b.call(ctx, int(b.next.Add(1)-1), nil)
}

func (b *batchChangelog) tracedOp(ctx context.Context, t *tracer) (int, error) {
	j := int(b.next.Add(1) - 1)
	req := int64(j + 1)
	root := t.start("op", 0, req)
	n, err := b.call(ctx, j, func(r *serve.BatchAssessRequest) (*serve.BatchResultDoc, error) {
		return assessBatchTraced(ctx, t, root.id, req, b.c, r)
	})
	end := root.end()
	t.observe("op.wall", ms(end.Sub(root.start)))
	t.observe("client.path_ops", batchEntries)
	return n, err
}

// entry is the single request equivalent to entry number id.
func (b *batchChangelog) entry(id int) *serve.AssessRequest {
	return entryRequest(batchRequest(b.e.seed, b.sigs, id/batchEntries), id%batchEntries)
}

func (b *batchChangelog) replay(ctx context.Context, r *replayer, i int) error {
	j := i % max(int(b.next.Load()), 1)
	req := batchRequest(b.e.seed, b.sigs, j)
	changes := make([]*changelog.Change, len(req.Changes))
	for e, cs := range req.Changes {
		ch, err := changeOf(cs)
		if err != nil {
			return err
		}
		changes[e] = ch
	}
	if _, err := r.batch(ctx, req.Generator.Seed, changes, false); err != nil {
		return err
	}
	if _, err := r.batch(ctx, req.Generator.Seed, changes, true); err != nil {
		return err
	}
	// One entry per batch also runs alone through the single path.
	e := j % batchEntries
	got, err := r.single(ctx, entryRequest(req, e))
	if err != nil {
		return err
	}
	b.mu.Lock()
	served, ok := b.kept[j*batchEntries+e]
	b.mu.Unlock()
	if ok && !bytes.Equal(embedded(got), served) {
		b.e.fail("batch %d entry %d: served answer differs from the single assessment", j, e)
	}
	return nil
}

func (b *batchChangelog) verify(ctx context.Context) (int, int) {
	// The golden change as a one-entry batch: its entry must be the
	// golden document, and a single request for it must then be a cache
	// hit serving the batch-computed bytes, byte for byte.
	doc, err := b.c.AssessBatch(ctx, asBatch(goldenGen, []serve.ChangeSpec{b.e.topo.goldenChange()}))
	if err == nil && (len(doc.Entries) != 1 || !bytes.Equal(doc.Entries[0].Assessment, embedded(bytes.TrimSuffix(b.e.golden, []byte("\n"))))) {
		err = fmt.Errorf("golden batch entry differs from the golden document")
	}
	var got []byte
	if err == nil {
		got, err = b.c.Assess(ctx, b.e.topo.goldenRequest())
	}
	att, failed := b.e.checkGolden(got, err)
	b.mu.Lock()
	kept := b.kept
	b.mu.Unlock()
	return att, failed + checkKept(ctx, b.e, kept, b.entry, embedded)
}

func (b *batchChangelog) counters() counts {
	return nodeCounts([]*node{b.n}, []string{b.n.jr.Dir()})
}

package main

// The traced run's span recorder. Spans are recorded by the benchmark's
// own code around calls into each layer's public functions, kept in
// memory, and written out once the run ends. A span's self time is its
// duration minus the part of its interval its children cover; a root's
// self time is the op's time no layer accounts for.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Spans of one request share Req; Parent
// is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans and named samples. Safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  int64
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[string][]float64{}}
}

// active is an open span; end closes it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// start opens a span named name under parent.
func (t *tracer) start(name string, parent, req int64) *active {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &active{t: t, id: id, parent: parent, req: req, name: name, start: time.Now()}
}

// end closes the span, records its duration (ms) as a sample under the
// span's name, and returns the end time.
func (a *active) end() time.Time {
	now := time.Now()
	a.t.add(a.id, a.parent, a.req, a.name, a.start, now)
	return now
}

// interval records a span whose bounds were observed elsewhere, for
// example the service's job timestamps.
func (t *tracer) interval(name string, parent, req int64, from, to time.Time) {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.add(id, parent, req, name, from, to)
}

func (t *tracer) add(id, parent, req int64, name string, from, to time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.samples[name] = append(t.samples[name], ms(s.dur()))
	t.mu.Unlock()
}

// observe records a named sample that is not a span duration.
func (t *tracer) observe(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// sample returns a copy of the samples recorded under name.
func (t *tracer) sample(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// count returns how many samples were recorded under name.
func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.samples[name])
}

// breakdown is the self-time accounting of a span tree.
type breakdown struct {
	// Self is each layer's self time, summed over its spans.
	Self map[string]time.Duration
	// Wall is the summed duration of the roots considered.
	Wall time.Duration
	// Unattributed is the roots' own self time: wall time no layer span
	// covers.
	Unattributed time.Duration
}

// selfTimes computes per-layer self time over the trees whose root is
// named root. A span counts only inside its parent's interval (the
// service may start a job before the client's submit returns), and
// overlapping siblings cover their parent once (interval union);
// concurrent siblings' self times can still sum past their parent's.
func selfTimes(spans []span, root string) breakdown {
	byParent := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	b := breakdown{Self: map[string]time.Duration{}}
	// walk accounts span s clipped to [lo, hi).
	var walk func(s span, lo, hi int64) time.Duration
	walk = func(s span, lo, hi int64) time.Duration {
		lo, hi = max(s.Start, lo), min(s.End, hi)
		if hi <= lo {
			return 0
		}
		kids := byParent[s.ID]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			walk(k, lo, hi)
			if klo, khi := max(k.Start, lo), min(k.End, hi); khi > klo {
				ivs = append(ivs, [2]int64{klo, khi})
			}
		}
		self := time.Duration(hi - lo - unionLen(ivs))
		b.Self[s.Name] += self
		return self
	}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			b.Wall += s.dur()
			b.Unattributed += walk(s, s.Start, s.End)
		}
	}
	return b
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write saves the spans and the self-time table of every root kind to
// path as JSON.
func (t *tracer) write(path string, meta map[string]any, roots ...string) error {
	spans := t.spansCopy()
	tables := map[string]any{}
	for _, r := range roots {
		b := selfTimes(spans, r)
		self := map[string]float64{}
		for name, d := range b.Self {
			self[name] = ms(d)
		}
		tables[r] = map[string]any{"wallMs": ms(b.Wall), "unattributedMs": ms(b.Unattributed), "selfMs": self}
	}
	doc := map[string]any{"meta": meta, "selfTime": tables, "spans": spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spansCopy returns the spans recorded so far.
func (t *tracer) spansCopy() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

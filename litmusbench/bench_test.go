package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/serve"
)

// digests returns the canonical digests of a run's first requests of
// every workload.
func digests(t *testing.T, topo *topology, seed int64) []string {
	t.Helper()
	var out []string
	add := func(r *serve.AssessRequest) {
		d, err := serve.CanonicalJobID(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	for i := 0; i < 8; i++ {
		add(topo.computeRequest(seed, streamCompute, i))
		add(topo.computeRequest(seed, streamWorking, i))
		b := batchRequest(seed, topo.signatures(seed), i)
		for e := range b.Changes {
			add(entryRequest(b, e))
		}
	}
	return out
}

func TestRequestsDeterministicPerSeed(t *testing.T) {
	topo, err := newTopology()
	if err != nil {
		t.Fatal(err)
	}
	a, b, other := digests(t, topo, 7), digests(t, topo, 7), digests(t, topo, 8)
	seen := map[string]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: digest differs between two generations from seed 7", i)
		}
		if seen[a[i]] {
			t.Fatalf("request %d: digest repeats within one seed", i)
		}
		seen[a[i]] = true
	}
	for i, d := range other {
		if seen[d] {
			t.Fatalf("request %d of seed 8 repeats a seed-7 digest", i)
		}
	}
}

func TestNearestRankKeepsTenBeyondP99(t *testing.T) {
	n := samplesFor(p99)
	if n != 1000 {
		t.Fatalf("samplesFor(0.99) = %d, want 1000", n)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	v, beyond := nearestRank(vals, p99)
	if v != 990 || beyond != minTail {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with %d", v, beyond, minTail)
	}
	if _, beyond := nearestRank(vals[:n-1], p99); beyond >= minTail {
		t.Fatalf("999 samples keep %d beyond p99; samplesFor is not the minimum", beyond)
	}
	if v, _ := nearestRank(vals, 0.5); v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", v)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, benchmark unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	topo, err := newTopology()
	if err != nil {
		t.Fatal(err)
	}
	check("end_to_end", bench.EndToEnd, endToEndUnits)
	check("per_layer", bench.PerLayer, layerUnits)
	for _, w := range bench.Workloads {
		if _, err := newWorkload(w.Name, &env{topo: topo}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // counts only inside the root
	}
	b := selfTimes(spans, "op")
	want := map[string]time.Duration{"op": 40, "a": 20, "b": 30, "c": 10, "d": 10}
	for name, d := range want {
		if b.Self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, b.Self[name], d)
		}
	}
	if b.Wall != 100 || b.Unattributed != 40 {
		t.Errorf("wall %d unattributed %d, want 100 and 40", b.Wall, b.Unattributed)
	}
}

// TestTinyRuns runs every workload briefly, untraced and traced, and
// requires every output check to pass and every metric to be reported.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots service nodes")
	}
	golden, err := os.ReadFile(filepath.Join("..", "testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := newTopology()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"serve-compute", "routed-hits", "batch-changelog"} {
		t.Run(name, func(t *testing.T) {
			hc := httpClient()
			defer hc.CloseIdleConnections()
			e := &env{seed: 3, topo: topo, golden: golden, dir: t.TempDir(), hc: hc}
			w, err := newWorkload(name, e)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.prepare(ctx); err != nil {
				t.Fatal(err)
			}
			if err := w.setup(ctx, 0); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := w.teardown(); err != nil {
					t.Error(err)
				}
			}()
			plain := &result{Metrics: map[string]metric{}}
			untraced(ctx, w, 200*time.Millisecond, 1, plain)
			o := options{workload: name, seed: 3, seconds: 1, work: t.TempDir()}
			tr := &result{Metrics: map[string]metric{}}
			if err := traced(ctx, o, e, w, time.Second, tr); err != nil {
				t.Fatal(err)
			}
			att, failed := w.verify(ctx)
			if plain.Failed+tr.Failed+failed != 0 || e.failures() != 0 {
				t.Fatalf("failed ops: %d untraced, %d traced, %d verify; notes %v", plain.Failed, tr.Failed, failed, e.failureNotes())
			}
			if plain.Attempted == 0 || tr.Attempted == 0 || att != 1 {
				t.Fatalf("attempted: %d untraced, %d traced, %d verify", plain.Attempted, tr.Attempted, att)
			}
			for _, r := range []struct {
				got   map[string]metric
				units map[string]string
			}{{plain.Metrics, endToEndUnits}, {tr.Metrics, layerUnits}} {
				var names []string
				for n := range r.units {
					names = append(names, n)
				}
				sort.Strings(names)
				for _, n := range names {
					m, ok := r.got[n]
					if !ok || m.Unit != r.units[n] || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: got %+v", n, m)
					}
				}
			}
		})
	}
}

func TestRoutedMismatchFailsTheOp(t *testing.T) {
	h := &routedHits{want: [][]byte{[]byte("a")}}
	if err := h.check(0, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := h.check(0, []byte("b"), nil); err == nil {
		t.Fatal("a differing answer passed the output check")
	}
}

package serve

// Tests of the topology cache: concurrent jobs sharing one cached
// network answer byte-identically to in-process assessments on freshly
// built networks and leave the shared network untouched (run under
// -race); distinct topologies get distinct networks; the cache is
// bounded by total elements with LRU eviction, and an oversized network
// is built uncached.

import (
	"context"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"

	litmus "repro"
)

// compiledTopology compiles the golden request with the given topology.
func compiledTopology(t *testing.T, spec TopologySpec) *compiledRequest {
	t.Helper()
	req := goldenRequest(t)
	req.Topology = &spec
	c, err := compile(req)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// studyOf returns the first three towers under the first RNC of the
// network built from spec.
func studyOf(t *testing.T, spec TopologySpec) []string {
	t.Helper()
	net := netsim.Build(compiledTopology(t, spec).topo)
	return net.Children(net.OfKind(netsim.RNC)[0])[:3]
}

// inProcessAssessment assesses req in-process on a freshly built network
// through Pipeline.AssessChangeContext — no service, no cache — and
// returns the marshaled bytes.
func inProcessAssessment(t *testing.T, req *AssessRequest) []byte {
	t.Helper()
	c, err := compile(req)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.Build(c.topo)
	change, err := c.buildChange()
	if err != nil {
		t.Fatal(err)
	}
	gcfg := gen.DefaultConfig(c.index)
	gcfg.Seed = c.genSeed
	gcfg.Effects = []gen.Effect{change.Effect(net)}
	g := gen.New(net, gcfg)
	p := &litmus.Pipeline{
		Network: net,
		Provider: litmus.ProviderFunc(func(id string, metric kpi.KPI) (litmus.Series, bool) {
			if net.Element(id) == nil {
				return litmus.Series{}, false
			}
			return g.Series(id, metric), true
		}),
		Assessor:         litmus.MustNewAssessor(c.cfg),
		ControlPredicate: control.And(c.preds...),
		MaxControls:      c.maxCtrls,
	}
	res, err := p.AssessChangeContext(context.Background(), change, c.kpis, c.window)
	if err != nil {
		t.Fatal(err)
	}
	b, err := litmus.MarshalAssessment(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSharedNetworkConcurrentJobs runs singles and a batch concurrently
// on one server whose jobs share the process-wide cached networks. Every answer must be
// byte-identical to an in-process assessment on a freshly built
// network, the shared network must be unchanged afterwards, and a second
// topology seed must get its own network.
func TestSharedNetworkConcurrentJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	golden := goldenRequest(t)
	specA := TopologySpec{Seed: 17}
	specB := TopologySpec{Seed: 29}
	cA := compiledTopology(t, specA)
	netA := topologies.network(cA)
	before := netA.Snapshot(time.Time{})

	var singles []*AssessRequest
	for seed := int64(5001); seed <= 5006; seed++ {
		req := goldenRequest(t)
		req.Generator = &GeneratorSpec{Seed: seed}
		singles = append(singles, req)
	}
	for seed := int64(5101); seed <= 5102; seed++ {
		req := goldenRequest(t)
		req.Topology = &TopologySpec{Seed: specB.Seed}
		req.Generator = &GeneratorSpec{Seed: seed}
		req.Change.Elements = studyOf(t, specB)
		singles = append(singles, req)
	}
	other := golden.Change
	other.ID = "CHG-OTHER"
	other.Elements = otherStudyElements(t)
	other.TrueQuality = 0.8
	batch := goldenBatchRequest(t, []ChangeSpec{golden.Change, other})
	batch.Generator = &GeneratorSpec{Seed: 5201}

	// Submissions only enqueue; the four workers then run the jobs
	// concurrently against the shared networks.
	ids := make([]string, len(singles))
	for i, req := range singles {
		sub, _ := submit(t, ts, req)
		ids[i] = sub.ID
	}
	bsub, _ := submitBatch(t, ts, batch)

	for i, req := range singles {
		if st := waitDone(t, ts, ids[i]); st.Status != stateDone {
			t.Fatalf("single %d finished %q: %s", i, st.Status, st.Error)
		}
		got, code := fetchResult(t, ts, ids[i])
		if code != http.StatusOK {
			t.Fatalf("single %d result: status %d", i, code)
		}
		if want := inProcessAssessment(t, req); string(got) != string(want) {
			t.Errorf("single %d (topology seed %d, generator seed %d) differs from the fresh-network assessment",
				i, req.Topology.Seed, req.Generator.Seed)
		}
	}
	if st := waitDone(t, ts, bsub.ID); st.Status != stateDone {
		t.Fatalf("batch finished %q: %s", st.Status, st.Error)
	}
	doc := fetchBatchResult(t, ts, bsub.ID)
	for i, ch := range batch.Changes {
		req := goldenRequest(t)
		req.Generator = batch.Generator
		req.Change = ch
		want := compactJSON(t, inProcessAssessment(t, req))
		if ent := doc.Entries[i]; ent.Error != "" || string(compactJSON(t, ent.Assessment)) != string(want) {
			t.Errorf("batch entry %d (%s) differs from the fresh-network assessment (error %q)", i, ch.ID, ent.Error)
		}
	}

	if got := topologies.network(cA); got != netA {
		t.Fatal("golden topology was rebuilt instead of served from the cache")
	}
	if after := netA.Snapshot(time.Time{}); !reflect.DeepEqual(before, after) {
		t.Error("jobs modified the shared network's snapshot")
	}
	fresh := netsim.Build(cA.topo)
	for _, id := range fresh.IDs() {
		if !reflect.DeepEqual(*netA.Element(id), *fresh.Element(id)) {
			t.Fatalf("shared element %s differs from a fresh build", id)
		}
	}
	netB := topologies.get(*compiledTopology(t, specB).norm.Topology)
	if netB == nil || netB == netA {
		t.Fatalf("topology seed %d has no network of its own (got %p, golden %p)", specB.Seed, netB, netA)
	}
}

// TestTopologyCacheBound pins the element bound: networks are evicted
// least recently used first once their total exceeds maxCachedElements,
// and a network larger than the bound is built but never cached.
func TestTopologyCacheBound(t *testing.T) {
	c := newTopologyCache()
	canonical := func(seed int64) TopologySpec { return *compiledTopology(t, TopologySpec{Seed: seed}).norm.Topology }
	first := canonical(1)
	net1 := c.network(compiledTopology(t, first))
	per := net1.Len()
	fit := maxCachedElements / per // default-size networks that fit together
	if fit < 2 {
		t.Fatalf("bound %d holds %d networks of %d elements; the test needs 2", maxCachedElements, fit, per)
	}
	for seed := int64(2); seed <= int64(fit); seed++ {
		c.network(compiledTopology(t, TopologySpec{Seed: seed}))
	}
	if c.get(first) != net1 { // also makes seed 1 the most recently used
		t.Fatal("seed 1 evicted before the bound was reached")
	}
	c.network(compiledTopology(t, TopologySpec{Seed: int64(fit) + 1}))
	if c.elements > maxCachedElements {
		t.Errorf("cache holds %d elements, bound %d", c.elements, maxCachedElements)
	}
	if c.get(first) != net1 {
		t.Error("recently used seed 1 was evicted")
	}
	if c.get(canonical(2)) != nil {
		t.Error("least recently used seed 2 survived the overflow")
	}

	big := compiledTopology(t, TopologySpec{Seed: 7, ControllersPerRegion: maxControllersPerRegion,
		TowersPerController: maxTowersPerController, CellsPerTower: maxCellsPerTower})
	held, entries := c.elements, c.ll.Len()
	if net := c.network(big); net.Len() <= maxCachedElements {
		t.Fatalf("oversized topology has %d elements, bound %d", net.Len(), maxCachedElements)
	}
	if c.get(*big.norm.Topology) != nil || c.elements != held || c.ll.Len() != entries {
		t.Error("an oversized network entered the cache")
	}
}

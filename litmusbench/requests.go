package main

// Seeded inputs. The workload seed is the only source of variation:
// every generator seed, working-set member and changelog entry is a pure
// function of (seed, stream, index), so the same seed always produces
// the same canonical digests and another seed produces new ones. The
// program under test sees only the generated requests.

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/serve"
)

// World shape shared by every request: the golden fixture's topology,
// time grid, KPIs, window, assessor seed and control predicates.
const (
	topoSeed    = 17
	goldenGen   = 23
	assessSeed  = 9
	windowDays  = 14
	indexPoints = 28 * 4
	indexStep   = 6 * time.Hour
)

var (
	indexStart = time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
	goldenAt   = time.Date(2012, 3, 15, 0, 0, 0, 0, time.UTC)
	kpiNames   = []string{"voice-retainability", "data-accessibility"}
	predicates = []string{"same-kind", "same-parent"}
)

// Stream labels keep the seeded draws of different purposes apart.
const (
	streamCompute uint64 = iota + 1
	streamFixture
	streamWorking
	streamBatch
	streamEntry
	streamSample
	streamClient
	streamSignature
)

// mix is a splitmix64 finalizer over (seed, stream, i): a deterministic,
// well-spread non-negative 63-bit value.
func mix(seed int64, stream uint64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9 ^ uint64(i+1)*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// genSeed is the i-th generator seed of a stream: never zero (zero means
// "default" to the service) and never the golden fixture's seed.
func genSeed(seed int64, stream uint64, i int) int64 {
	return 1000 + mix(seed, stream, i)%(1<<40)
}

// sampled reports whether op i of a run is in the seeded output-check
// subsample (one op in every `every`).
func sampled(seed int64, i, every int) bool {
	return mix(seed, streamSample, i)%int64(every) == 0
}

// topology is the fixed benchmark network, built once per process to
// name study elements; the service rebuilds it from the request.
type topology struct {
	golden  []string   // the golden fixture's study: the first RNC's first three towers
	studies [][]string // every tower triple under an RNC
}

func newTopology() (*topology, error) {
	cfg := netsim.DefaultTopologyConfig()
	cfg.Seed = topoSeed
	net := netsim.Build(cfg)
	rncs := net.OfKind(netsim.RNC)
	if len(rncs) == 0 {
		return nil, fmt.Errorf("benchmark topology has no RNCs")
	}
	t := &topology{}
	for _, rnc := range rncs {
		children := net.Children(rnc)
		for o := 0; o+3 <= len(children); o += 3 {
			t.studies = append(t.studies, children[o:o+3])
		}
	}
	if len(t.studies) == 0 {
		return nil, fmt.Errorf("benchmark topology has no tower triples")
	}
	t.golden = t.studies[0]
	return t, nil
}

// goldenChange is the golden fixture's change record.
func (t *topology) goldenChange() serve.ChangeSpec {
	return serve.ChangeSpec{
		ID:          "CHG-GOLD",
		Type:        "config-change",
		Description: "golden fixture change",
		Elements:    t.golden,
		At:          goldenAt.Format(time.RFC3339),
		TrueQuality: -1.5,
	}
}

// request wraps the shared world around one change and generator seed.
func request(gen int64, ch serve.ChangeSpec) *serve.AssessRequest {
	return &serve.AssessRequest{
		Topology:   &serve.TopologySpec{Seed: topoSeed},
		Generator:  &serve.GeneratorSpec{Seed: gen},
		Index:      serve.IndexSpec{Start: indexStart.Format(time.RFC3339), Step: indexStep.String(), N: indexPoints},
		Change:     ch,
		KPIs:       append([]string(nil), kpiNames...),
		WindowDays: windowDays,
		Assessor:   &serve.AssessorSpec{Seed: assessSeed},
		Controls:   &serve.ControlsSpec{Predicates: append([]string(nil), predicates...)},
	}
}

// goldenRequest is the request whose result must equal
// testdata/golden_assessment.json.
func (t *topology) goldenRequest() *serve.AssessRequest {
	return request(goldenGen, t.goldenChange())
}

// computeRequest is the i-th golden-style request of a stream: the
// golden change on a fresh generator seed, so every one is new work.
func (t *topology) computeRequest(seed int64, stream uint64, i int) *serve.AssessRequest {
	return request(genSeed(seed, stream, i), t.goldenChange())
}

// Changelog shape of the batch workload.
const (
	batchEntries    = 4 // entries per POST /v1/assess/batch
	batchSignatures = 3 // distinct (study, change time) pairs per run
)

var (
	changeTypes = []string{"config-change", "software-upgrade", "feature-activation", "hardware-upgrade"}
	qualities   = []float64{-1.5, -0.8, 0, 0.8}
	// changeOffsets are the change times a signature may take, relative
	// to the golden change time, which centres the 14-day windows in the
	// 28-day index; earlier times clip the before-window at the index
	// start.
	changeOffsets = []time.Duration{0, -indexStep, -2 * indexStep}
)

// signature is one (study, change time) pair of the batch workload.
type signature struct {
	study []string
	at    time.Time
}

// signatures draws the run's bounded signature set.
func (t *topology) signatures(seed int64) []signature {
	sigs := make([]signature, 0, batchSignatures)
	seen := map[string]bool{}
	for i := 0; len(sigs) < batchSignatures; i++ {
		v := mix(seed, streamSignature, i)
		study := t.studies[v%int64(len(t.studies))]
		at := goldenAt.Add(changeOffsets[(v/int64(len(t.studies)))%int64(len(changeOffsets))])
		key := fmt.Sprint(study, at)
		if seen[key] {
			continue
		}
		seen[key] = true
		sigs = append(sigs, signature{study: study, at: at})
	}
	return sigs
}

// batchRequest is the j-th changelog batch of a run: its own generator
// seed (so every entry is new work) and batchEntries changes spread over
// the run's signatures.
func batchRequest(seed int64, sigs []signature, j int) *serve.BatchAssessRequest {
	changes := make([]serve.ChangeSpec, batchEntries)
	for e := range changes {
		v := mix(seed, streamEntry, j*batchEntries+e)
		sig := sigs[v%int64(len(sigs))]
		changes[e] = serve.ChangeSpec{
			ID:          fmt.Sprintf("CHG-B%05d-%d", j, e),
			Type:        changeTypes[(v/7)%int64(len(changeTypes))],
			Description: "benchmark changelog entry",
			Elements:    sig.study,
			At:          sig.at.Format(time.RFC3339),
			TrueQuality: qualities[(v/31)%int64(len(qualities))],
		}
	}
	return asBatch(genSeed(seed, streamBatch, j), changes)
}

// asBatch wraps the shared world around a changelog.
func asBatch(gen int64, changes []serve.ChangeSpec) *serve.BatchAssessRequest {
	shared := request(gen, serve.ChangeSpec{})
	return &serve.BatchAssessRequest{
		Topology:   shared.Topology,
		Generator:  shared.Generator,
		Index:      shared.Index,
		Changes:    changes,
		KPIs:       shared.KPIs,
		WindowDays: shared.WindowDays,
		Assessor:   shared.Assessor,
		Controls:   shared.Controls,
	}
}

// entryRequest is the single request equivalent to entry e of a batch.
func entryRequest(b *serve.BatchAssessRequest, e int) *serve.AssessRequest {
	return request(b.Generator.Seed, b.Changes[e])
}

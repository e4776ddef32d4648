package core

// Scratch-arena subsystem of the regression hot path. The sampling inner
// loop of AssessElement runs Iterations × (design build + QR factorize +
// solve + leverages); done naively that is dozens of heap allocations per
// iteration. Two mechanisms bring it to (amortized) zero:
//
//   - elemScratch: a per-worker arena holding the design-matrix buffers,
//     the QR factorization storage, and the solver/leverage work vectors.
//     forEachWorker guarantees no two concurrent iterations share a
//     worker index, so scratch reuse needs no locking; arenas are pooled
//     on the assessor so repeated assessments do not even pay the arena
//     construction.
//   - a process-wide deterministic sample table: the control columns
//     iteration it draws depend only on (Seed, it, n, k) — never on the
//     element — so they are computed once per (Seed, Iterations, n, k)
//     and shared read-only across every element, KPI, assessor and
//     request, which hoists the rand.NewSource seeding out of the hot loop.
//
// Nothing here may perturb the (Seed, iteration) RNG-derivation contract
// of parallel.go: cached samples are the exact draws the contract
// specifies, and scratch buffers are fully overwritten before every use.

import (
	"sort"
	"sync"

	"repro/internal/linalg"
)

// elemScratch is one worker's reusable buffers for the sampling loop.
// All fields are value types or slices grown in place, so a pooled
// scratch stabilizes at the workload's high-water shape and stops
// allocating.
type elemScratch struct {
	xb, xa, xfit linalg.Matrix // sampled design matrices (with intercept)
	qr           linalg.QR     // the single factorization per iteration
	beta         []float64     // solved coefficients
	swork        []float64     // QR solve work vector (Qᵀb)
	hs           []float64     // hat-matrix diagonal
	zwork        []float64     // leverage forward-solve work vector
}

// growFloats returns buf resized to n, reusing its storage when capacity
// allows. Contents are unspecified; callers overwrite fully.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// sampleKey identifies one sample sequence: iteration it draws depend
// only on (Seed, it, n, k), which is what makes them shareable.
type sampleKey struct {
	seed             int64
	iterations, n, k int
}

// maxSampleInts bounds the sample table by the column indexes it holds
// (8 MiB of ints). A shape larger than the bound is computed uncached;
// inserting past it evicts arbitrary cached shapes.
const maxSampleInts = 1 << 20

// sampleTable is the process-wide sample cache. Its slices are read-only.
var sampleTable = struct {
	sync.Mutex
	shapes map[sampleKey][][]int
	ints   int // total column indexes held
}{shapes: make(map[sampleKey][][]int)}

// runtimeState is the scratch-arena pool an Assessor carries alongside
// its immutable Config. WithObserver shares it between derived
// assessors — it is purely a performance artifact and never observable
// in assessment output.
type runtimeState struct{ scratch sync.Pool } // of *elemScratch

func newRuntimeState() *runtimeState {
	return &runtimeState{scratch: sync.Pool{New: func() any { return &elemScratch{} }}}
}

// workerScratches is the per-call set of lazily acquired worker arenas.
type workerScratches []*elemScratch

func newWorkerScratches(workers, n int) workerScratches {
	return make(workerScratches, max(1, min(workers, n)))
}

// get returns worker w's scratch, acquiring it from the pool on first use.
func (ws workerScratches) get(rt *runtimeState, w int) *elemScratch {
	if ws[w] == nil {
		ws[w] = rt.scratch.Get().(*elemScratch)
	}
	return ws[w]
}

// release returns every acquired scratch to the pool.
func (ws workerScratches) release(rt *runtimeState) {
	for _, s := range ws {
		if s != nil {
			rt.scratch.Put(s)
		}
	}
}

// samplesFor returns the sorted control-column sample for every sampling
// iteration on an n-column panel with sample size k. The result is the
// exact sequence sampleColumns(iterRNG(Seed, it), n, k) would produce —
// the determinism contract — computed once per process per sampleKey
// and shared read-only. Callers must not mutate the returned slices.
func (a *Assessor) samplesFor(n, k int) [][]int {
	key := sampleKey{a.cfg.Seed, a.cfg.Iterations, n, k}
	sampleTable.Lock()
	s, ok := sampleTable.shapes[key]
	sampleTable.Unlock()
	if ok {
		return s
	}

	s = make([][]int, a.cfg.Iterations)
	perm := make([]int, n)
	flat := make([]int, a.cfg.Iterations*k)
	for it := range s {
		permInto(iterRNG(a.cfg.Seed, it), perm)
		cols := flat[it*k : (it+1)*k : (it+1)*k]
		copy(cols, perm[:k])
		sort.Ints(cols)
		s[it] = cols
	}
	if len(flat) > maxSampleInts {
		return s
	}

	sampleTable.Lock()
	defer sampleTable.Unlock()
	if cached, ok := sampleTable.shapes[key]; ok {
		return cached // another goroutine won the race; share its copy
	}
	for old := range sampleTable.shapes {
		if sampleTable.ints+len(flat) <= maxSampleInts {
			break
		}
		delete(sampleTable.shapes, old)
		sampleTable.ints -= old.iterations * old.k
	}
	sampleTable.shapes[key] = s
	sampleTable.ints += len(flat)
	return s
}

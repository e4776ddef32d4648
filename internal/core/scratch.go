package core

// Scratch-arena subsystem of the regression hot path. The sampling inner
// loop of AssessElement runs Iterations × (design build + QR factorize +
// solve + leverages); done naively that is dozens of heap allocations per
// iteration. Three mechanisms bring it to (amortized) zero:
//
//   - process-wide arenas: the per-worker elemScratch, the shared
//     per-iteration products of a control panel (panelFactors) and the
//     per-element fit slots (iterFits) all come from package-level
//     sync.Pools. The service builds a fresh Assessor per job, so pools
//     owned by an assessor would always be cold; package-level ones are
//     warm from the second assessment of a shape on, in any assessor.
//   - per-worker ownership: forEachWorker guarantees no two concurrent
//     iterations share a worker index, so an acquired elemScratch needs
//     no locking; an iteration writes only its own panelFactors and
//     iterFits slots.
//   - a process-wide deterministic sample table: the control columns
//     iteration it draws depend only on (Seed, it, n, k) — never on the
//     element — so they are computed once per (Seed, Iterations, n, k)
//     and shared read-only across every element, KPI, assessor and
//     request, which hoists the per-iteration seeding out of the hot loop.
//
// Reset and lifetime rules for pooled storage: a canceled or
// underdetermined iteration writes nothing, so every reused slot's
// validity flag (and the shared leverage vector) is reset before the
// fan-out; buffer contents are fully overwritten before they are read.
// An arena goes back to its pool only after the last reader returned,
// and no result may alias pooled storage — finishElement builds its
// medians and differences in fresh slices.
//
// Nothing here may perturb the (Seed, iteration) RNG-derivation contract
// of parallel.go: cached samples are the exact draws the contract
// specifies.

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

// The process-wide arenas (see the package comment above).
var (
	scratchPool = sync.Pool{New: func() any { return &elemScratch{} }}
	factorsPool = sync.Pool{New: func() any { return &panelFactors{} }}
	fitsPool    = sync.Pool{New: func() any { return &iterFits{} }}
)

// workerScratches is the per-call set of lazily acquired worker arenas.
type workerScratches []*elemScratch

func newWorkerScratches(workers, n int) workerScratches {
	return make(workerScratches, max(1, min(workers, n)))
}

// get returns worker w's scratch, acquiring it from the pool on first use.
func (ws workerScratches) get(w int) *elemScratch {
	if ws[w] == nil {
		ws[w] = scratchPool.Get().(*elemScratch)
	}
	return ws[w]
}

// release returns every acquired scratch to the pool.
func (ws workerScratches) release() {
	for _, s := range ws {
		if s != nil {
			scratchPool.Put(s)
		}
	}
}

// iterFits is one element's per-iteration fit slots, the forecast
// vectors carved out of one growable arena — iteration it owns slot it
// exclusively, so the worker fan-out writes race-free.
type iterFits struct {
	slots []iterFit
	arena []float64
}

// getIterFits returns pooled fit slots for iters iterations over
// before/after windows of lenB and lenA, every slot reset to not-ok.
// The caller returns them with release once the results are built.
func getIterFits(iters, lenB, lenA int) *iterFits {
	f := fitsPool.Get().(*iterFits)
	if cap(f.slots) < iters {
		f.slots = make([]iterFit, iters)
	}
	f.slots = f.slots[:iters]
	f.arena = growFloats(f.arena, iters*(lenB+lenA))
	for it := range f.slots {
		off := it * (lenB + lenA)
		f.slots[it] = iterFit{
			fb: f.arena[off : off+lenB : off+lenB],
			fa: f.arena[off+lenB : off+lenB+lenA : off+lenB+lenA],
		}
	}
	return f
}

func (f *iterFits) release() { fitsPool.Put(f) }

// getPanelFactors returns pooled panel factors for iters iterations over
// a before window of lenB rows: fitRows covers the window and every
// iteration slot is reset (ok false, no leverages), its design and
// factorization buffers kept for reuse. The caller returns it with
// release after the last reader finished.
func getPanelFactors(iters, lenB int) *panelFactors {
	pf := factorsPool.Get().(*panelFactors)
	if cap(pf.fitRows) < lenB {
		pf.fitRows = make([]int, lenB)
	}
	pf.fitRows = pf.fitRows[:lenB]
	for i := range pf.fitRows {
		pf.fitRows[i] = i
	}
	if cap(pf.iters) < iters {
		grown := make([]iterShared, iters)
		copy(grown, pf.iters[:cap(pf.iters)])
		pf.iters = grown
	}
	pf.iters = pf.iters[:iters]
	for it := range pf.iters {
		pf.iters[it].ok = false
		pf.iters[it].hs = nil
	}
	return pf
}

func (pf *panelFactors) release() { factorsPool.Put(pf) }

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

package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc runs one call of a workload and returns how many ops
// (changelog entries for a batch call, otherwise 1) it attempted. A
// non-nil error fails all of them.
type opFunc func(ctx context.Context) (ops int, err error)

// loopResult is what a closed loop measured.
type loopResult struct {
	attempted, failed int // ops
	entries           int // ops that succeeded
	latencies         []float64
	wall              time.Duration
	windows           []window
}

// window is the work done and resources used in one fixed slice of a
// closed loop's time.
type window struct {
	dur     time.Duration
	ops     int64 // ops that succeeded
	cpu     time.Duration
	alloc   uint64
	peakRSS int64 // bytes, highest of the slice's readings
}

// rssEvery is how often a window reads the resident set size.
const rssEvery = 50 * time.Millisecond

// windowMedian is the median over full windows of f.
func (r loopResult) windowMedian(f func(w window) float64) float64 {
	vs := make([]float64, 0, len(r.windows))
	for _, w := range r.windows {
		if w.ops > 0 {
			vs = append(vs, f(w))
		}
	}
	return median(vs)
}

// sortedLatencies returns the per-call latencies (ms) in ascending
// order; failed calls sort last, as +Inf.
func (r loopResult) sortedLatencies() []float64 {
	s := append([]float64(nil), r.latencies...)
	sort.Float64s(s)
	return s
}

// closedLoop runs op from `clients` goroutines, each issuing its next
// call only when the previous one returned, until dur has passed and at
// least minCalls calls have started — but never past limit. With every
// > 0 it also reads the process's resources every `every`, one window
// per full slice.
func closedLoop(ctx context.Context, dur time.Duration, minCalls int, limit, every time.Duration, op opFunc) loopResult {
	var (
		mu      sync.Mutex
		res     loopResult
		started atomic.Int64
		okOps   atomic.Int64
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		sampled = make(chan []window)
	)
	if every > 0 {
		go func() { sampled <- sampleWindows(every, &okOps, stop) }()
	}
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var attempted, failed int
			for {
				el := time.Since(t0)
				if el >= limit || (el >= dur && started.Load() >= int64(minCalls)) || ctx.Err() != nil {
					break
				}
				started.Add(1)
				c0 := time.Now()
				n, err := op(ctx)
				d := ms(time.Since(c0))
				attempted += n
				if err != nil {
					failed += n
					d = math.Inf(1)
					logf("op failed: %v", err)
				} else {
					okOps.Add(int64(n))
				}
				lat = append(lat, d)
			}
			mu.Lock()
			res.latencies = append(res.latencies, lat...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	res.entries = res.attempted - res.failed
	close(stop)
	if every > 0 {
		res.windows = <-sampled
	}
	return res
}

// sampleWindows reads the process's resources and the succeeded-op
// count every `every`, and its resident set size every rssEvery, until
// stop is closed, and returns the full windows between readings.
func sampleWindows(every time.Duration, ops *atomic.Int64, stop <-chan struct{}) []window {
	tick := time.NewTicker(every)
	defer tick.Stop()
	rss := time.NewTicker(rssEvery)
	defer rss.Stop()
	prev, prevOps := snapshot(), ops.Load()
	peak := residentBytes()
	var out []window
	for {
		select {
		case <-stop:
			return out
		case <-rss.C:
			peak = max(peak, residentBytes())
		case <-tick.C:
			cur, curOps := snapshot(), ops.Load()
			peak = max(peak, residentBytes())
			out = append(out, window{dur: cur.at.Sub(prev.at), ops: curOps - prevOps, cpu: cur.cpu - prev.cpu, alloc: cur.alloc - prev.alloc, peakRSS: peak})
			prev, prevOps, peak = cur, curOps, 0
		}
	}
}

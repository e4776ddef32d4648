package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// nearestRank returns the q-quantile of sorted by the nearest-rank rule
// (the ceil(q·n)-th smallest value) and how many samples lie beyond it.
func nearestRank(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// samplesFor is the fewest samples for which the q-quantile keeps at
// least minTail samples beyond it.
func samplesFor(q float64) int {
	n := 1
	for n-int(math.Ceil(q*float64(n))) < minTail {
		n++
	}
	return n
}

// median of the values (NaN when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// usage is a process resource snapshot.
type usage struct {
	at    time.Time
	cpu   time.Duration // user + system
	alloc uint64        // cumulative bytes allocated
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: m.TotalAlloc,
	}
}

// cpuNow is the process's user + system time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes is the process's current resident set size, from
// /proc/self/statm (0 where that cannot be read).
func residentBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0
	}
	return resident * int64(os.Getpagesize())
}

package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// mean returns the mean of xs, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

const mb = 1 << 20

// Runtime metrics the benchmark samples. Reading them is a few hundred
// nanoseconds and allocation-free once the sample slice exists.
const (
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmLive     = "/gc/heap/live:bytes"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmGCCycles = "/gc/cycles/total:gc-cycles"
)

// runtimeSample is one reading of the runtime metrics above.
type runtimeSample struct {
	allocs, live uint64
	gcCPU        float64
	gcCycles     uint64
}

// probe reads runtime metrics into a reusable sample slice. It is
// used from one goroutine at a time (the benchmark's own, or the
// engine's coordinator inside listener callbacks).
type probe struct {
	s []metrics.Sample
}

func newProbe() *probe {
	return &probe{s: []metrics.Sample{{Name: rmAllocs}, {Name: rmLive}, {Name: rmGCCPU}, {Name: rmGCCycles}}}
}

func (p *probe) read() runtimeSample {
	metrics.Read(p.s)
	return runtimeSample{
		allocs:   p.s[0].Value.Uint64(),
		live:     p.s[1].Value.Uint64(),
		gcCPU:    p.s[2].Value.Float64(),
		gcCycles: p.s[3].Value.Uint64(),
	}
}

// tally counts the operations and correctness checks a run attempted
// and which of them failed. A failed check is never retried.
type tally struct {
	attempted, failed int64
	errs              []string
}

// check records one attempted check; ok=false counts it as failed.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	return ok
}

func (t *tally) String() string { return strings.Join(t.errs, "\n") }

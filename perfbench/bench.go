package main

import (
	"fmt"
	"time"
)

// report is everything one invocation measured.
type report struct {
	t *tally
	// e2e holds the gated end-to-end metrics, layers the traced run's
	// per-layer metrics (nil without -trace).
	e2e, layers map[string]float64
	// lines are the human-readable figures under the names the
	// rationale doc uses (job_s, page_p90_ms, failed_frac...).
	lines []line
	meta  map[string]any
	// spans is what the traced run recorded, written out at the end.
	spans any
}

type line struct {
	name  string
	value float64
	unit  string
}

func (r *report) add(name string, value float64, unit string) {
	r.lines = append(r.lines, line{name, value, unit})
}

func walls(rs []jobResult) (w []float64) {
	for _, r := range rs {
		w = append(w, r.wallS)
	}
	return w
}

// benchJobs measures a job workload: debugged and Graft-detached runs
// of the same job in interleaved pairs (ABBA order) until the time is
// up. The traced run adds one span-recorded debugged job per round.
func benchJobs(o options) (*report, error) {
	spec, err := jobSpecFor(o.workload, o.seed, o.sizes)
	if err != nil {
		return nil, err
	}
	want, err := o.expectation(spec.name)
	if err != nil {
		return nil, err
	}
	rep := &report{t: &tally{}}
	env, err := newJobEnv(spec, o.seed, o.sizes, want, rep.t)
	if err != nil {
		return nil, err
	}

	var dbg, base, traced []jobResult
	var layers []map[string]float64
	var spans []any
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < o.seconds; round++ {
		steps := []func(){
			func() { dbg = append(dbg, env.run(true).release()) },
			func() { base = append(base, env.run(false).release()) },
		}
		if o.trace {
			steps = append(steps, func() {
				r, rec := env.runTraced()
				if r.ok {
					layers = append(layers, jobLayers(r, rec))
					spans = append(spans, map[string]any{"job": r.jobID, "wall_ns": int64(r.wallS * 1e9), "supersteps": rec.steps})
				}
				traced = append(traced, r.release())
			})
		}
		if round%2 == 1 {
			for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
				steps[i], steps[j] = steps[j], steps[i]
			}
		}
		for _, step := range steps {
			step()
		}
	}

	heapMB := env.peakHeap()
	var alloc, traceMB []float64
	var records int64
	for _, r := range dbg {
		records = r.traceRecords
		alloc = append(alloc, r.allocMB)
		traceMB = append(traceMB, float64(r.traceBytes)/mb)
	}
	jobS, baseS := median(walls(dbg)), median(walls(base))
	// Jobs run one at a time, so ops_per_s is 1 / the mean debugged job
	// time: unlike latency_ms, it carries the slow jobs.
	rep.e2e = map[string]float64{
		"setup_s":      median(env.buildS),
		"latency_ms":   jobS * 1000,
		"baseline_ms":  baseS * 1000,
		"ops_per_s":    float64(len(dbg)) / sum(walls(dbg)),
		"alloc_mb":     median(alloc),
		"heap_peak_mb": heapMB,
		"trace_mb":     median(traceMB),
	}
	rep.add("job_s", jobS, "s")
	rep.add("baseline_job_s", baseS, "s")
	rep.add("overhead_x", jobS/baseS, "x")
	rep.add("setup_s", rep.e2e["setup_s"], "s")
	rep.add("alloc_mb", rep.e2e["alloc_mb"], "MB")
	rep.add("heap_peak_mb", rep.e2e["heap_peak_mb"], "MB")
	rep.add("trace_mb", rep.e2e["trace_mb"], "MB")
	rep.add("debugged_jobs", float64(len(dbg)), "count")
	rep.add("baseline_jobs", float64(len(base)), "count")

	if o.trace {
		rep.layers = mergeMedians(layers)
		rep.layers["core.overhead_x"] = jobS / baseS
		rep.layers["bench.tracing_overhead_x"] = median(walls(traced)) / jobS
		rep.add("traced_jobs", float64(len(traced)), "count")
	}
	rep.layers = withBuild(rep.layers, env.buildS)

	rep.meta = map[string]any{
		"vertices":        env.vertices,
		"edges":           env.edges,
		"supersteps":      env.refSupersteps,
		"messages":        env.refMessages,
		"debugged_jobs":   len(dbg),
		"baseline_jobs":   len(base),
		"traced_jobs":     len(traced),
		"trace_bytes":     median(traceMB) * mb,
		"trace_records":   records,
		"pages":           0,
		"crash_superstep": env.failAt,
		"crash_partition": env.victim,
	}
	if env.want != nil {
		rep.meta["captures"] = env.want.Captures
		rep.meta["trace_digest"] = env.want.TraceDigest
	}
	rep.spans = spans
	return rep, nil
}

const minPages = 100

// benchInspect measures the inspect-mwm workload: cold GUI sessions
// over the trace the mwm-soc-full job writes at the same seed.
func benchInspect(o options) (*report, error) {
	spec, err := jobSpecFor(wlInspect, o.seed, o.sizes)
	if err != nil {
		return nil, err
	}
	want, err := o.expectation(spec.name)
	if err != nil {
		return nil, err
	}
	rep := &report{t: &tally{}}
	sz := o.sizes
	sz.setups = sz.traceSetups
	env, err := newJobEnv(spec, o.seed, sz, want, rep.t)
	if err != nil {
		return nil, err
	}
	// Set-up is generating the graph and writing the trace; both are
	// repeated and the median reported. The last trace is inspected.
	var setup []float64
	var capture jobResult
	for i := range env.buildS {
		capture = jobResult{} // let the previous trace go before the next job
		capture = env.run(true)
		if capture.stats == nil {
			return nil, fmt.Errorf("the capture run for the inspected trace failed:\n%s", rep.t)
		}
		setup = append(setup, env.buildS[i]+capture.wallS)
	}
	// Only the trace stays alive through the sessions: the job's Stats
	// point into its engine, and the graph is no longer needed.
	capture.stats = nil
	env.base = nil
	pages, err := drawPages(capture.cluster, capture.jobID, o.sizes.pairs, spec.perm)
	if err != nil {
		return nil, err
	}

	// Sessions alternate with passes of the same pages' lookups, so a
	// slow spell of the machine weighs on both alike.
	var plain, traced []session
	var lookupMs []float64
	start := time.Now()
	// At least minPages pages, so the page p90 has ten samples beyond it.
	for round := 0; len(plain)*len(pages) < minPages || time.Since(start).Seconds() < o.seconds; round++ {
		steps := []func(){
			func() {
				plain = append(plain, inspect(capture.cluster, capture.jobID, pages, plainSession, env.probe, rep.t))
			},
			func() { lookupMs = append(lookupMs, lookupTimes(capture.cluster, capture.jobID, pages, rep.t)...) },
		}
		if o.trace {
			steps = append(steps, func() {
				traced = append(traced, inspect(capture.cluster, capture.jobID, pages, tracedSession, env.probe, rep.t))
			})
		}
		if round%2 == 1 {
			for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
				steps[i], steps[j] = steps[j], steps[i]
			}
		}
		for _, step := range steps {
			step()
		}
	}

	heap := inspect(capture.cluster, capture.jobID, pages, heapSession, env.probe, rep.t)
	pageMs := pageTimes(plain)
	var alloc, read, rate []float64
	for _, s := range plain {
		alloc = append(alloc, s.allocMB)
		read = append(read, s.readMB)
		rate = append(rate, float64(len(s.pageMs))/s.wallS)
	}
	// A page's latency is the mean of the five kinds' median page
	// times: the pooled median lands in the fastest of the three
	// ~100 ms kinds and moves with no other kind.
	kinds := kindMedians(plain, pages)
	p50 := quantile(pageMs, 0.5)
	rep.e2e = map[string]float64{
		"setup_s":      median(setup),
		"latency_ms":   mean(kinds[:]),
		"baseline_ms":  mean(lookupMs),
		"ops_per_s":    median(rate),
		"alloc_mb":     median(alloc),
		"heap_peak_mb": heap.heapPeakMB,
		"trace_mb":     median(read),
	}
	rep.add("page_kind_mean_ms", rep.e2e["latency_ms"], "ms")
	rep.add("page_p50_ms", p50, "ms")
	rep.add("page_p90_ms", quantile(pageMs, 0.9), "ms")
	rep.add("pages_per_s", rep.e2e["ops_per_s"], "1/s")
	rep.add("lookup_mean_ms", rep.e2e["baseline_ms"], "ms")
	rep.add("setup_s", rep.e2e["setup_s"], "s")
	rep.add("alloc_mb", rep.e2e["alloc_mb"], "MB")
	rep.add("heap_peak_mb", rep.e2e["heap_peak_mb"], "MB")
	rep.add("trace_read_mb", rep.e2e["trace_mb"], "MB")
	for k, name := range pageKindNames {
		rep.add(name+"_p50_ms", kinds[k], "ms")
	}
	rep.add("sessions", float64(len(plain)), "count")
	rep.add("pages", float64(len(pageMs)), "count")

	if o.trace {
		rep.layers = sessionLayers(traced)
		tracedMs := pageTimes(traced)
		rep.layers["gui.page_p90_ms"] = quantile(pageMs, 0.9)
		rep.layers["bench.tracing_overhead_x"] = quantile(tracedMs, 0.5) / p50
		var gcCPU, gcCycles []float64
		for _, s := range traced {
			gcCPU = append(gcCPU, s.gc.gcCPU)
			gcCycles = append(gcCycles, float64(s.gc.gcCycles))
		}
		rep.layers["runtime.gc_cpu_s"] = median(gcCPU)
		rep.layers["runtime.gc_cycles"] = median(gcCycles)
		var spans []map[string]any
		for _, s := range traced {
			for i := range s.lookupMs {
				spans = append(spans, map[string]any{"page": pages[i].url(capture.jobID),
					"page_ms": s.pageMs[i], "lookup_ms": s.lookupMs[i]})
			}
		}
		rep.spans = spans
	}
	rep.layers = withBuild(rep.layers, env.buildS)

	rep.meta = map[string]any{
		"vertices":      env.vertices,
		"edges":         env.edges,
		"supersteps":    env.refSupersteps,
		"messages":      env.refMessages,
		"captures":      env.want.Captures,
		"trace_digest":  env.want.TraceDigest,
		"trace_bytes":   capture.traceBytes,
		"pages":         len(pageMs),
		"sessions":      len(plain),
		"traced_pages":  len(traced) * len(pages),
		"pages_session": len(pages),
	}
	return rep, nil
}

// mergeMedians reduces per-job metric maps to their medians.
func mergeMedians(ms []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// withBuild adds graphgen.build_s to a traced run's layers.
func withBuild(layers map[string]float64, buildS []float64) map[string]float64 {
	if layers != nil {
		layers["graphgen.build_s"] = median(buildS)
	}
	return layers
}

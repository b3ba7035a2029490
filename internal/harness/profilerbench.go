package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"graft/internal/pregel"
)

// ProfilerBench is one workload's row of the profiler-overhead
// experiment behind `graft-bench -profiler`. Two cells feed it, both
// with the base metrics layer on so the comparison isolates exactly
// what the profiler adds (the per-superstep traffic-matrix snapshot
// plus the anomaly-detector pass at each barrier):
//
//   - off: AnomalyWindow = -1 — telemetry without the profiler layer,
//   - on: detectors and traffic capture at the default window.
//
// Each repetition times the two cells as an ABBA block (off, on,
// on, off — order alternating per repetition), and Overhead is the
// median of the per-block on/off ratios: machine-load drift cancels
// because the cells run adjacent in time, and run-position bias
// (the second run of a pair inheriting the first's heap) cancels
// because each block holds both orders. Overhead is the headline
// number the acceptance gate checks (<5%).
type ProfilerBench struct {
	Workload string `json:"workload"`
	// Reps is the measured repetition count actually run — at least
	// the requested count, raised for sub-second workloads until each
	// cell accumulates enough wall time to summarize stably.
	Reps int `json:"reps"`
	// OffNanos is the fastest runtime with the profiler layer disabled.
	OffNanos int64 `json:"profiler_off_ns"`
	// OnNanos is the fastest runtime with traffic capture + detection on.
	OnNanos int64 `json:"profiler_on_ns"`
	// Overhead is the median per-repetition on/off ratio minus one.
	Overhead float64 `json:"profiler_overhead"`
	// The remaining fields describe the profiled run.
	Supersteps int `json:"supersteps"`
	// TrafficMessages sums every captured traffic matrix; with capture
	// on at every superstep it must equal MessagesSent.
	TrafficMessages int64 `json:"traffic_messages"`
	MessagesSent    int64 `json:"messages_sent"`
	// TrafficConsistent reports the per-superstep invariant: each
	// matrix sums to exactly that superstep's MessagesSent.
	TrafficConsistent bool `json:"traffic_consistent"`
	Anomalies         int  `json:"anomalies"`
}

// profilerRun executes one repetition of a workload with the given
// AnomalyWindow and returns its wall time and stats.
func profilerRun(wl Workload, base *pregel.Graph, window int) (time.Duration, *pregel.Stats, error) {
	runtime.GC()
	g := base.Clone()
	alg := wl.Algorithm()
	job := pregel.NewJob(g, alg.Compute, pregel.Config{
		NumWorkers:    wl.Workers,
		Combiner:      alg.Combiner,
		Master:        alg.Master,
		MaxSupersteps: alg.MaxSupersteps,
		AnomalyWindow: window,
	})
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	start := time.Now()
	stats, err := job.Run()
	if err != nil {
		return 0, nil, err
	}
	return time.Since(start), stats, nil
}

// medianBlockRatio returns the median over ABBA blocks of that
// block's (on0+on1)/(off0+off1), or 1 when there is nothing to
// compare. Each block's four runs are adjacent in time and hold both
// orders, so machine-load drift and run-position bias both cancel —
// summarizing the cells independently (mean or fastest) would
// misread either as overhead.
func medianBlockRatio(off, on []time.Duration) float64 {
	blocks := len(off) / 2
	if b := len(on) / 2; b < blocks {
		blocks = b
	}
	ratios := make([]float64, 0, blocks)
	for i := 0; i < blocks; i++ {
		offSum := off[2*i] + off[2*i+1]
		onSum := on[2*i] + on[2*i+1]
		if offSum > 0 {
			ratios = append(ratios, float64(onSum)/float64(offSum))
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sort.Float64s(ratios)
	if len(ratios)%2 == 1 {
		return ratios[len(ratios)/2]
	}
	return (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
}

// RunProfilerBench measures what the profiler layer itself costs: for
// each workload it compares detection-off (AnomalyWindow=-1) against
// detection-on runs of the bare engine, and checks the traffic
// invariant on the profiled run.
func RunProfilerBench(workloads []Workload, opts Options) ([]ProfilerBench, error) {
	if opts.Reps <= 0 {
		opts.Reps = 5
	}
	// Short workloads get extra repetitions until each cell has
	// accumulated at least minMeasured of wall time, so the
	// fastest-of-N summarization has enough samples to shed
	// scheduler noise; long workloads stay at opts.Reps.
	const (
		minMeasured = 500 * time.Millisecond
		maxReps     = 25
	)
	var out []ProfilerBench
	for _, wl := range workloads {
		base := wl.Dataset.Build()
		warm, _, err := profilerRun(wl, base, -1)
		if err != nil {
			return nil, fmt.Errorf("harness: %s profiler-off: %w", wl.Label, err)
		}
		if _, _, err := profilerRun(wl, base, 0); err != nil {
			return nil, fmt.Errorf("harness: %s profiler-on: %w", wl.Label, err)
		}
		reps := opts.Reps
		if warm > 0 {
			if need := int(minMeasured / (2 * warm)); need > reps {
				reps = need
			}
		}
		if reps > maxReps {
			reps = maxReps
		}
		offTimes := make([]time.Duration, 0, 2*reps)
		onTimes := make([]time.Duration, 0, 2*reps)
		var stats *pregel.Stats
		var cellErr error
		runOff := func() {
			d, _, err := profilerRun(wl, base, -1)
			if err != nil {
				cellErr = fmt.Errorf("harness: %s profiler-off: %w", wl.Label, err)
				return
			}
			offTimes = append(offTimes, d)
		}
		runOn := func() {
			d, s, err := profilerRun(wl, base, 0)
			if err != nil {
				cellErr = fmt.Errorf("harness: %s profiler-on: %w", wl.Label, err)
				return
			}
			onTimes = append(onTimes, d)
			stats = s
		}
		for rep := 0; rep < reps && cellErr == nil; rep++ {
			first, second := runOff, runOn
			if rep%2 != 0 {
				first, second = runOn, runOff
			}
			for _, run := range [4]func(){first, second, second, first} {
				run()
				if cellErr != nil {
					break
				}
			}
		}
		if cellErr != nil {
			return nil, cellErr
		}
		off, on := Fastest(offTimes), Fastest(onTimes)
		row := ProfilerBench{
			Workload: wl.Label,
			Reps:     reps,
			OffNanos: off.Nanoseconds(),
			OnNanos:  on.Nanoseconds(),
			Overhead: medianBlockRatio(offTimes, onTimes) - 1,
		}
		if stats != nil {
			row.Supersteps = stats.Supersteps
			row.MessagesSent = stats.TotalMessages
			row.Anomalies = len(stats.Anomalies)
			row.TrafficConsistent = true
			for _, ss := range stats.PerSuperstep {
				var sum int64
				for _, r := range ss.Traffic {
					for _, v := range r {
						sum += v
					}
				}
				row.TrafficMessages += sum
				if sum != ss.MessagesSent {
					row.TrafficConsistent = false
				}
			}
		}
		out = append(out, row)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-10s off=%8.2fms on=%8.2fms overhead=%+.2f%% consistent=%v\n",
				wl.Label, float64(off.Microseconds())/1000,
				float64(on.Microseconds())/1000, row.Overhead*100, row.TrafficConsistent)
		}
	}
	return out, nil
}

// PrintProfilerBench renders the profiler-overhead rows as a table.
func PrintProfilerBench(w io.Writer, ps []ProfilerBench) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\toff\ton\toverhead\tsupersteps\ttraffic\tsent\tconsistent\tanomalies")
	for _, p := range ps {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%+.2f%%\t%d\t%d\t%d\t%v\t%d\n",
			p.Workload,
			time.Duration(p.OffNanos).Round(time.Microsecond),
			time.Duration(p.OnNanos).Round(time.Microsecond),
			p.Overhead*100, p.Supersteps,
			p.TrafficMessages, p.MessagesSent, p.TrafficConsistent, p.Anomalies)
	}
	tw.Flush()
}

// WriteProfilerBenchJSON writes the rows as indented JSON (the
// BENCH_profiler.json artifact).
func WriteProfilerBenchJSON(w io.Writer, ps []ProfilerBench) error {
	b, err := json.MarshalIndent(ps, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// CheckProfilerBench returns deviations: profiler overhead beyond
// tolerance (e.g. 0.05 = 5%), or a broken traffic invariant.
func CheckProfilerBench(ps []ProfilerBench, tolerance float64) []string {
	var problems []string
	for _, p := range ps {
		if p.Overhead > tolerance {
			problems = append(problems, fmt.Sprintf(
				"%s: profiler overhead %.2f%% exceeds %.0f%%",
				p.Workload, p.Overhead*100, tolerance*100))
		}
		if !p.TrafficConsistent {
			problems = append(problems, fmt.Sprintf(
				"%s: traffic matrices sum to %d, engine sent %d",
				p.Workload, p.TrafficMessages, p.MessagesSent))
		}
	}
	return problems
}

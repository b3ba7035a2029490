package servebench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/harness"
	"graft/internal/trace"
)

// Serve benchmark geometry. The jobs are debugged PageRank runs whose
// trace segments land on a store charging ServeBenchStoreLatency per
// file-system round trip — the regime `graft serve` exists for, where
// a job's wall time is dominated by trace I/O against the shared DFS
// and concurrent jobs overlap those waits. One worker per job keeps
// the comparison honest on small machines: the sequential session is
// not starved of CPU, it is starved of overlap.
const (
	ServeBenchJobs         = 4
	ServeBenchWorkers      = 1
	ServeBenchSupersteps   = 8
	ServeBenchStoreLatency = 2 * time.Millisecond
	ServeBenchSegmentSize  = 4 << 10
)

// ServeBench is the one-row result behind `graft-bench -serve`: the
// same N debugged jobs run through a Session once with one concurrency
// slot (the old graft.Run regime, jobs back to back) and once with N
// slots (the `graft serve` regime), against equally slow stores.
type ServeBench struct {
	Jobs       int   `json:"jobs"`
	Workers    int   `json:"workers_per_job"`
	Supersteps int   `json:"supersteps"`
	Vertices   int   `json:"vertices"`
	Reps       int   `json:"reps"`
	LatencyNS  int64 `json:"store_latency_ns"`
	// SequentialNanos / ConcurrentNanos are each mode's fastest
	// repetition of the whole batch, submit of the first job to Wait
	// of the last.
	SequentialNanos int64 `json:"sequential_ns"`
	ConcurrentNanos int64 `json:"concurrent_ns"`
	// SequentialJobsPerSec / ConcurrentJobsPerSec are the aggregate
	// throughputs those times imply.
	SequentialJobsPerSec float64 `json:"sequential_jobs_per_sec"`
	ConcurrentJobsPerSec float64 `json:"concurrent_jobs_per_sec"`
	// Speedup is sequential/concurrent aggregate throughput: >1 means
	// the shared session amortized the store latency.
	Speedup float64 `json:"speedup"`
	// DigestsMatch reports that every job produced the same trace
	// digest in both modes — concurrency changed the schedule, not
	// the traces.
	DigestsMatch bool `json:"digests_match"`
}

// serveBenchRun executes the N-job batch through one session with the
// given number of concurrency slots and returns the batch wall time
// plus each job's trace digest.
func serveBenchRun(base *graft.Graph, slots int, seed int64) (time.Duration, map[string]string, error) {
	runtime.GC()
	store := graft.NewStore(dfs.NewLatencyFS(graft.NewMemFS(), ServeBenchStoreLatency), "traces")
	sess, err := graft.NewSession(graft.SessionConfig{
		Store:             store,
		MaxConcurrentJobs: slots,
	})
	if err != nil {
		return 0, nil, err
	}
	defer sess.Close()

	start := time.Now()
	jobs := make([]*graft.Job, ServeBenchJobs)
	for i := range jobs {
		jobs[i], err = sess.SubmitAlgorithm(context.Background(), base.Clone(),
			algorithms.NewPageRank(ServeBenchSupersteps, 0.85), graft.RunOptions{
				JobID: fmt.Sprintf("job-%d", i),
				Debug: &graft.DebugConfig{
					NumRandomCaptures: 30,
					CaptureNeighbors:  true,
					RandomSeed:        seed + int64(i),
					CaptureExceptions: true,
				},
				Trace:  []graft.TraceOption{graft.WithSegmentSize(ServeBenchSegmentSize)},
				Engine: graft.EngineConfig{NumWorkers: ServeBenchWorkers},
			})
		if err != nil {
			return 0, nil, err
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			return 0, nil, fmt.Errorf("job %s: %w", j.ID(), err)
		}
	}
	elapsed := time.Since(start)

	digests := make(map[string]string, len(jobs))
	for _, j := range jobs {
		v, err := graft.OpenTrace(store, j.ID())
		if err != nil {
			return 0, nil, fmt.Errorf("open %s: %w", j.ID(), err)
		}
		digests[j.ID()] = trace.Digest(v)
	}
	return elapsed, digests, nil
}

// RunServeBench measures the serving-mode win: N debugged jobs back
// to back versus the same N jobs sharing a session with N slots.
func RunServeBench(scale float64, opts harness.Options) (*ServeBench, error) {
	if opts.Reps <= 0 {
		opts.Reps = 5
	}
	n := int(30_000_000 * scale)
	if n < 1000 {
		n = 1000
	}
	base := graphgen.WebGraph(n, 8, opts.Seed)

	row := &ServeBench{
		Jobs:         ServeBenchJobs,
		Workers:      ServeBenchWorkers,
		Supersteps:   ServeBenchSupersteps,
		Vertices:     int(base.NumVertices()),
		Reps:         opts.Reps,
		LatencyNS:    ServeBenchStoreLatency.Nanoseconds(),
		DigestsMatch: true,
	}
	var seqTimes, conTimes []time.Duration
	var refDigests map[string]string
	for rep := -1; rep < opts.Reps; rep++ {
		var st, ct time.Duration
		runSeq := func() error {
			t, digests, err := serveBenchRun(base, 1, opts.Seed)
			if err != nil {
				return fmt.Errorf("harness: sequential: %w", err)
			}
			st = t
			if refDigests == nil {
				refDigests = digests
			} else if !sameDigests(refDigests, digests) {
				row.DigestsMatch = false
			}
			return nil
		}
		runCon := func() error {
			t, digests, err := serveBenchRun(base, ServeBenchJobs, opts.Seed)
			if err != nil {
				return fmt.Errorf("harness: concurrent: %w", err)
			}
			ct = t
			if refDigests == nil {
				refDigests = digests
			} else if !sameDigests(refDigests, digests) {
				row.DigestsMatch = false
			}
			return nil
		}
		first, second := runSeq, runCon
		if rep%2 != 0 {
			first, second = runCon, runSeq
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
		if rep < 0 {
			continue // warmup
		}
		seqTimes = append(seqTimes, st)
		conTimes = append(conTimes, ct)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "rep %d: sequential=%8.2fms concurrent=%8.2fms\n",
				rep, float64(st.Microseconds())/1000, float64(ct.Microseconds())/1000)
		}
	}
	seqBest, conBest := harness.Fastest(seqTimes), harness.Fastest(conTimes)
	row.SequentialNanos = seqBest.Nanoseconds()
	row.ConcurrentNanos = conBest.Nanoseconds()
	if seqBest > 0 {
		row.SequentialJobsPerSec = float64(ServeBenchJobs) / seqBest.Seconds()
	}
	if conBest > 0 {
		row.ConcurrentJobsPerSec = float64(ServeBenchJobs) / conBest.Seconds()
		row.Speedup = float64(seqBest) / float64(conBest)
	}
	return row, nil
}

// sameDigests reports whether both runs produced identical per-job
// trace digests.
func sameDigests(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// PrintServeBench renders the row as a table.
func PrintServeBench(w io.Writer, r *ServeBench) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "jobs\tworkers/job\tsupersteps\tsequential\tconcurrent\tseq jobs/s\tconc jobs/s\tspeedup\tdigests")
	match := "match"
	if !r.DigestsMatch {
		match = "DIVERGED"
	}
	fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%s\t%.2f\t%.2f\t%.2fx\t%s\n",
		r.Jobs, r.Workers, r.Supersteps,
		time.Duration(r.SequentialNanos).Round(time.Microsecond),
		time.Duration(r.ConcurrentNanos).Round(time.Microsecond),
		r.SequentialJobsPerSec, r.ConcurrentJobsPerSec, r.Speedup, match)
	tw.Flush()
}

// WriteServeBenchJSON writes the row as indented JSON (the
// BENCH_serve.json artifact).
func WriteServeBenchJSON(w io.Writer, r *ServeBench) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// CheckServeBench verifies the serving-mode claims: concurrent jobs
// against the shared store deliver at least 1.3x the aggregate
// throughput of the same jobs run back to back, without perturbing a
// single trace digest.
func CheckServeBench(r *ServeBench) []string {
	var problems []string
	if r.Speedup < 1.3 {
		problems = append(problems, fmt.Sprintf(
			"concurrent aggregate throughput only %.2fx sequential (want >= 1.3x)", r.Speedup))
	}
	if !r.DigestsMatch {
		problems = append(problems, "per-job trace digests diverged between sequential and concurrent runs")
	}
	return problems
}

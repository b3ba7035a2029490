package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"graft"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// newCluster is the HDFS stand-in every job writes its trace,
// checkpoints and outbox logs to: 3 datanodes, replication 2, default
// block size, no injected latency.
func newCluster() *dfs.Cluster { return dfs.NewCluster(3, 2, 0) }

// jobEnv is a job workload after set-up: its input graph, the
// Graft-free reference result and the crash plan.
type jobEnv struct {
	spec    *jobSpec
	workers int
	t       *tally
	probe   *probe

	base     *pregel.Graph
	buildS   []float64 // graph generation times, one per set-up
	vertices int64
	edges    int64

	// Reference: the same job without Graft and without a crash.
	refDigest     string
	refSupersteps int
	refMessages   int64

	// failAt and victim place the crash of pr-web-recover: the last
	// barrier a full checkpoint interval after its checkpoint, on a
	// seed-picked partition.
	failAt, victim int

	// want is what every debugged job must capture; nil until the
	// first debugged job when the seed has no recorded expectation.
	want *expectation
	jobs int
}

// newJobEnv generates the input `setups` times (timing each) and runs
// the reference job. Only the generator is timed: the seed's
// renumbering of the last graph is the benchmark's own work.
func newJobEnv(spec *jobSpec, seed int64, sz sizes, want *expectation, t *tally) (*jobEnv, error) {
	e := &jobEnv{spec: spec, workers: runtime.NumCPU(), t: t, probe: newProbe(), want: want}
	for i := 0; i < sz.setups; i++ {
		e.base = nil
		runtime.GC()
		start := time.Now()
		e.base = spec.build()
		e.buildS = append(e.buildS, time.Since(start).Seconds())
	}
	if spec.perm != nil {
		e.base = renumber(e.base, spec.perm)
	}
	e.vertices, e.edges = e.base.NumVertices(), e.base.NumEdges()

	g := e.base.Clone()
	res, err := graft.RunAlgorithm(g, spec.algorithm(), graft.RunOptions{
		Engine: pregel.Config{NumWorkers: e.workers},
	})
	if err != nil {
		return nil, fmt.Errorf("%s reference run: %w", spec.name, err)
	}
	e.refDigest = g.ValuesDigest()
	e.refSupersteps = res.Stats.Supersteps
	e.refMessages = res.Stats.TotalMessages
	if spec.crash {
		e.failAt = -1
		for s := e.refSupersteps - 1; s >= 1; s-- {
			if s%checkpointEvery == checkpointEvery-1 {
				e.failAt = s
				break
			}
		}
		if e.failAt < 0 {
			return nil, fmt.Errorf("%s: %d supersteps is too short for a crash a checkpoint interval late",
				spec.name, e.refSupersteps)
		}
		e.victim = graft.PickPartition(seed, e.workers)
	}
	return e, nil
}

// engineConfig is the engine configuration of one job; fs receives
// checkpoints and outbox logs.
func (e *jobEnv) engineConfig(fs dfs.FileSystem) pregel.Config {
	cfg := pregel.Config{NumWorkers: e.workers}
	if e.spec.crash {
		cfg.CheckpointEvery = checkpointEvery
		cfg.CheckpointFS = fs
		cfg.CheckpointPrefix = checkpointPrefix
		cfg.Recovery = pregel.RecoveryLog
		cfg.MsgLogFS = fs
		cfg.MsgLogPrefix = msgLogPrefix
		cfg.PartitionFailureAt = graft.FailPartitionAt(e.failAt, e.victim)
	}
	return cfg
}

// jobResult is one measured job.
type jobResult struct {
	wallS      float64
	allocMB    float64
	traceBytes int64
	captures   int64
	// traceRecords is the number of vertex captures the trace holds.
	// It is below captures when confined recovery re-executes captured
	// vertices: the re-captures replace records already written.
	traceRecords int64
	stats        *pregel.Stats
	cluster      *dfs.Cluster
	jobID        string
	gc           runtimeSample // GC counters consumed by the job
	ok           bool          // the job ran and every check passed
}

// release drops the result's references to the job's file system and
// stats, so that keeping results does not keep jobs alive: the Stats
// a job returns point into its engine.
func (r jobResult) release() jobResult {
	r.cluster, r.stats = nil, nil
	return r
}

// heapProbe measures the peak live heap of a job: at every barrier it
// forces a collection and reads the live heap. It runs in one extra,
// untimed job per invocation, because the live-heap metric is only
// updated by a collection and sampling it without one reads whatever
// the last collection happened to see.
type heapProbe struct {
	p    *probe
	peak uint64
}

func (h *heapProbe) sample() {
	runtime.GC()
	h.peak = max(h.peak, h.p.read().live)
}

func (h *heapProbe) JobStarted(pregel.JobInfo)                    { h.sample() }
func (h *heapProbe) SuperstepStarted(int, pregel.SuperstepInfo)   {}
func (h *heapProbe) SuperstepFinished(int, pregel.SuperstepStats) { h.sample() }
func (h *heapProbe) JobFinished(*pregel.Stats, error)             { h.sample() }

// peakHeap runs the debugged job once under a heapProbe and returns
// its peak live heap in MB.
func (e *jobEnv) peakHeap() float64 {
	h := &heapProbe{p: e.probe}
	r := e.runWith(true, h)
	if !r.ok {
		return 0
	}
	return float64(h.peak) / mb
}

// run executes the job once through graft.RunAlgorithm, debugged or
// with Graft detached, and checks its outputs.
func (e *jobEnv) run(debugged bool) jobResult { return e.runWith(debugged, nil) }

// runWith is run with a listener attached to the engine.
func (e *jobEnv) runWith(debugged bool, listener pregel.JobListener) jobResult {
	runtime.GC()
	cluster := newCluster()
	g := e.base.Clone()
	alg := e.spec.algorithm()
	e.jobs++
	jobID := fmt.Sprintf("%s-%d", e.spec.name, e.jobs)
	opts := graft.RunOptions{JobID: jobID, Engine: e.engineConfig(cluster)}
	opts.Engine.Listener = listener
	if debugged {
		dc := e.spec.debug
		opts.Debug = &dc
		opts.Store = trace.NewStore(cluster, traceRoot)
	}
	before := e.probe.read()
	start := time.Now()
	res, err := graft.RunAlgorithm(g, alg, opts)
	wall := time.Since(start)
	after := e.probe.read()

	r := jobResult{
		wallS:   wall.Seconds(),
		allocMB: float64(after.allocs-before.allocs) / mb,
		cluster: cluster,
		jobID:   jobID,
		gc:      runtimeSample{gcCPU: after.gcCPU - before.gcCPU, gcCycles: after.gcCycles - before.gcCycles},
	}
	if res != nil {
		r.stats, r.captures = res.Stats, res.Captures
	}
	r.ok = e.verify(&r, g, err, debugged)
	return r
}

// runTraced executes the debugged job once with every layer wrapped by
// a span recorder. It mirrors RunAlgorithm's wiring (core.Attach,
// Instrument, InstrumentMaster, pregel.NewJob) so that the computation
// can be wrapped both outside and inside Graft's instrumentation.
func (e *jobEnv) runTraced() (jobResult, *recorder) {
	runtime.GC()
	cluster := newCluster()
	rec := newRecorder(e.workers)
	fs := rec.wrapFS(cluster)
	g := e.base.Clone()
	alg := e.spec.algorithm()
	e.jobs++
	jobID := fmt.Sprintf("%s-traced-%d", e.spec.name, e.jobs)

	cfg := e.engineConfig(fs)
	cfg.Combiner = alg.Combiner
	cfg.MaxSupersteps = alg.MaxSupersteps
	before := e.probe.read()
	rec.callNs = now()
	session, err := core.Attach(trace.NewStore(fs, traceRoot), core.Options{
		JobID:      jobID,
		Algorithm:  alg.Name,
		NumWorkers: e.workers,
		Context:    context.Background(),
	}, g, e.spec.debug)
	rec.attachNs = now() - rec.callNs
	if err != nil {
		e.t.check(false, "%s: attach: %v", jobID, err)
		return jobResult{jobID: jobID}, rec
	}
	comp := rec.wrapCompute(session.Instrument(rec.wrapCompute(alg.Compute, lUser, lSendCore)), lInstrumented, lSendEngine)
	cfg.Master = session.InstrumentMaster(rec.wrapMaster(alg.Master))
	cfg.Listener = rec.wrapListener(session)
	job := pregel.NewJob(g, comp, cfg)
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	stats, err := job.Run()
	wall := now() - rec.callNs
	after := e.probe.read()
	if werr := session.Err(); werr != nil && err == nil {
		err = fmt.Errorf("trace write: %w", werr)
	}

	r := jobResult{
		wallS:    float64(wall) / 1e9,
		allocMB:  float64(after.allocs-before.allocs) / mb,
		captures: session.Captures(),
		stats:    stats,
		cluster:  cluster,
		jobID:    jobID,
		gc:       runtimeSample{gcCPU: after.gcCPU - before.gcCPU, gcCycles: after.gcCycles - before.gcCycles},
	}
	r.ok = e.verify(&r, g, err, true)
	return r, rec
}

// verify runs every correctness check on a finished job. Each check
// counts once in the tally; a failure is never retried.
func (e *jobEnv) verify(r *jobResult, g *pregel.Graph, err error, debugged bool) bool {
	t := e.t
	if !t.check(err == nil && r.stats != nil, "%s: job failed: %v", r.jobID, err) {
		return false
	}
	ok := t.check(g.ValuesDigest() == e.refDigest,
		"%s: final values digest differs from the Graft-free reference", r.jobID)
	ok = t.check(r.stats.Supersteps == e.refSupersteps,
		"%s: %d supersteps, reference ran %d", r.jobID, r.stats.Supersteps, e.refSupersteps) && ok
	if e.spec.crash {
		s := r.stats
		confined := s.Recoveries == 1 && len(s.RecoveryEvents) == 1 &&
			s.RecoveryEvents[0].Mode == "log" && s.RecoveryEvents[0].PartitionsRecomputed == 1 &&
			len(s.RecoveryEvents[0].Partitions) == 1 && s.RecoveryEvents[0].Partitions[0] == e.victim
		ok = t.check(confined, "%s: want exactly one confined recovery of partition %d, got %d recoveries %+v",
			r.jobID, e.victim, s.Recoveries, s.RecoveryEvents) && ok
	}
	if !debugged {
		return ok
	}
	ok = t.check(r.stats.Faults.DroppedRecords == 0,
		"%s: %d trace records dropped", r.jobID, r.stats.Faults.DroppedRecords) && ok

	store := trace.NewStore(r.cluster, traceRoot)
	n, err := treeBytes(r.cluster, traceRoot+"/"+r.jobID+"/")
	r.traceBytes = n
	ok = t.check(err == nil, "%s: sizing trace: %v", r.jobID, err) && ok
	reader, err := store.OpenReader(r.jobID)
	if !t.check(err == nil, "%s: opening trace: %v", r.jobID, err) {
		return false
	}
	got := expectation{Captures: r.captures, TraceDigest: graft.TraceDigest(reader)}
	ok = t.check(reader.Err() == nil, "%s: reading trace: %v", r.jobID, reader.Err()) && ok
	r.traceRecords = reader.TotalCaptures()
	if e.want == nil {
		e.want = &got
		return ok
	}
	ok = t.check(got.Captures == e.want.Captures,
		"%s: %d captures, want %d", r.jobID, got.Captures, e.want.Captures) && ok
	return t.check(got.TraceDigest == e.want.TraceDigest,
		"%s: trace digest %s, want %s", r.jobID, got.TraceDigest, e.want.TraceDigest) && ok
}

// treeBytes sums the sizes of the files under prefix.
func treeBytes(fs dfs.FileSystem, prefix string) (int64, error) {
	names, err := fs.List(prefix)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		rc, err := fs.Open(name)
		if err != nil {
			return 0, err
		}
		n, err := io.Copy(io.Discard, rc)
		rc.Close()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// jobLayers turns one traced debugged job into per-layer metrics.
func jobLayers(r jobResult, rec *recorder) map[string]float64 {
	t := rec.totals()
	s := r.stats
	m := map[string]float64{}
	m["pregel.load_s"] = float64(rec.startedNs-rec.callNs-rec.attachNs) / 1e9
	m["pregel.master_s"] = float64(t.masterNs+rec.masterNs) / 1e9
	m["pregel.compute_s"] = float64(t.self[lUser]) / 1e9
	m["pregel.compute_calls"] = float64(t.calls[lUser])
	m["pregel.send_s"] = float64(t.self[lSendEngine]) / 1e9
	m["pregel.superstep_p50_ms"] = median(t.stepNs) / 1e6
	m["pregel.superstep_max_ms"] = maxOf(t.stepNs) / 1e6
	m["pregel.barrier_s"] = float64(t.barrierNs) / 1e9
	m["pregel.straggler_wait_s"] = float64(t.waitNs) / 1e9
	ck, lg := &rec.fs[fsCheckpoint], &rec.fs[fsMsgLog]
	m["pregel.checkpoint_s"] = float64(ck.writeNs.Load()+ck.readNs.Load()) / 1e9
	m["pregel.checkpoint_mb"] = float64(ck.writeBytes.Load()) / mb
	m["pregel.msglog_s"] = float64(lg.writeNs.Load()+lg.readNs.Load()) / 1e9
	m["pregel.msglog_mb"] = float64(lg.writeBytes.Load()) / mb
	if s != nil {
		m["pregel.messages"] = float64(s.TotalMessages)
		var combined int64
		for _, ss := range s.PerSuperstep {
			combined += ss.MessagesCombined
		}
		m["pregel.messages_combined"] = float64(combined)
		var recNs int64
		for _, ev := range s.RecoveryEvents {
			m["pregel.partitions_recomputed"] += float64(ev.PartitionsRecomputed)
			m["pregel.messages_replayed"] += float64(ev.MessagesReplayed)
			for _, st := range rec.steps {
				if st.Superstep == ev.Superstep+1 {
					recNs += st.GapNs
				}
			}
		}
		m["pregel.recovery_s"] = float64(recNs) / 1e9
		m["trace.dropped"] = float64(s.Faults.DroppedRecords)
	}
	m["core.attach_s"] = float64(rec.attachNs) / 1e9
	m["core.instrument_s"] = float64(t.self[lInstrumented]+t.self[lSendCore]) / 1e9
	m["core.captures"] = float64(r.captures)
	if t.calls[lUser] > 0 {
		m["core.capture_ratio"] = float64(r.captures) / float64(t.calls[lUser])
	}
	m["trace.flush_s"] = float64(t.flushNs) / 1e9
	m["trace.seal_s"] = float64(rec.sealNs) / 1e9
	m["trace.queue_peak"] = float64(rec.queuePeak)
	fsMetrics(m, rec)
	m["dfs.replica_mb"] = float64(r.cluster.Stats().BytesWritten) / mb
	m["runtime.gc_cpu_s"] = r.gc.gcCPU
	m["runtime.gc_cycles"] = float64(r.gc.gcCycles)
	return m
}

// fsMetrics adds the dfs layer's totals over every path class.
func fsMetrics(m map[string]float64, rec *recorder) {
	var wns, wb, files, rns, rb int64
	for i := range rec.fs {
		c := &rec.fs[i]
		wns += c.writeNs.Load()
		wb += c.writeBytes.Load()
		files += c.files.Load()
		rns += c.readNs.Load()
		rb += c.readBytes.Load()
	}
	m["dfs.write_s"] = float64(wns) / 1e9
	m["dfs.write_mb"] = float64(wb) / mb
	m["dfs.files"] = float64(files)
	m["dfs.read_s"] = float64(rns) / 1e9
	m["dfs.read_mb"] = float64(rb) / mb
}

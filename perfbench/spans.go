package main

import (
	"io"
	"strings"
	"sync/atomic"
	"time"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// The traced run records spans from outside the program: it wraps the
// interfaces the engine and the debugger call into (Computation,
// Context, MasterComputation, JobListener, dfs.FileSystem) and never
// edits them. Per-call layers are aggregated per (superstep, worker)
// in memory; coordinator spans are kept one per superstep. Everything
// is written out when the benchmark ends.

// Per-worker layers, nested outermost first. A layer's self time is
// its span minus the spans of the layers it called.
const (
	lInstrumented = iota // Graft's instrumented Compute (debugged jobs)
	lUser                // the user's Compute
	lSendCore            // a send on Graft's recording Context
	lSendEngine          // a send on the engine's Context
	nLayers
)

var layerNames = [nLayers]string{"core.instrument", "pregel.compute", "core.send", "pregel.send"}

var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// workerSpans is one worker's span stack and per-layer accumulators.
// Only that worker's goroutine touches it during a superstep; the
// coordinator reads it at the barrier, after the workers joined.
type workerSpans struct {
	stack [8]int64 // child time accumulated per open span
	depth int
	self  [nLayers]int64
	calls [nLayers]int64
	// ctxs are the reusable Context wrappers of this worker, one per
	// send layer, so wrapping allocates nothing per call.
	ctxs [nLayers]spanCtx
	_    [64]byte
}

func (w *workerSpans) begin() int64 {
	w.stack[w.depth] = 0
	w.depth++
	return now()
}

func (w *workerSpans) end(layer int, start int64) {
	d := now() - start
	w.depth--
	w.self[layer] += d - w.stack[w.depth]
	w.calls[layer]++
	if w.depth > 0 {
		w.stack[w.depth-1] += d
	}
}

// fsClass splits file-system traffic by what the engine or Graft
// stores at a path.
type fsClass int

const (
	fsTrace fsClass = iota
	fsCheckpoint
	fsMsgLog
	nFSClasses
)

const (
	traceRoot        = "traces"
	checkpointPrefix = "ckpt/"
	msgLogPrefix     = "log/"
)

func classify(path string) fsClass {
	switch {
	case strings.HasPrefix(path, checkpointPrefix):
		return fsCheckpoint
	case strings.HasPrefix(path, msgLogPrefix):
		return fsMsgLog
	}
	return fsTrace
}

// fsCounters are summed over every goroutine that touched the file
// system (compute workers, trace drainers, the coordinator).
type fsCounters struct {
	writeNs, writeBytes, files atomic.Int64
	readNs, readBytes          atomic.Int64
}

// stepSpan is the coordinator's view of one superstep.
type stepSpan struct {
	Superstep int   `json:"superstep"`
	StartNs   int64 `json:"start_ns"` // SuperstepStarted
	EndNs     int64 `json:"end_ns"`   // SuperstepFinished
	// GapNs is the time from the previous barrier to SuperstepStarted
	// minus the master and checkpoint writes inside it: recovery work
	// after a failure barrier, a few microseconds otherwise.
	GapNs        int64 `json:"gap_ns"`
	MasterNs     int64 `json:"master_ns"`
	CheckpointNs int64 `json:"checkpoint_ns"`
	FlushNs      int64 `json:"flush_ns"`
	QueueDepth   int   `json:"queue_depth"`
	// BusyMaxNs is the slowest worker's compute time and WaitNs the sum
	// over workers of the time they waited for it, both from the
	// SuperstepStats the listener receives.
	BusyMaxNs int64 `json:"busy_max_ns"`
	WaitNs    int64 `json:"wait_ns"`
	// Layers holds per-worker self time and call counts per layer.
	Layers []layerSpan `json:"layers"`
}

type layerSpan struct {
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	SelfNs int64  `json:"self_ns"`
	Calls  int64  `json:"calls"`
}

// recorder collects the spans of one traced job.
type recorder struct {
	workers []workerSpans
	fs      [nFSClasses]fsCounters

	// Coordinator state, touched only from listener and master
	// callbacks (the engine's coordinator goroutine).
	callNs, attachNs, startedNs, sealNs int64
	lastBarrierNs, masterNs, ckptMarkNs int64
	queuePeak                           int
	steps                               []stepSpan
	cur                                 *stepSpan
}

func newRecorder(workers int) *recorder {
	r := &recorder{workers: make([]workerSpans, workers), callNs: now()}
	for i := range r.workers {
		for l := range r.workers[i].ctxs {
			r.workers[i].ctxs[l] = spanCtx{ws: &r.workers[i], layer: l}
		}
	}
	return r
}

// --- Computation and Context ---

// spanComp times one Compute layer and hands the computation it wraps
// a Context whose sends are timed as sendLayer.
type spanComp struct {
	r                *recorder
	inner            pregel.Computation
	layer, sendLayer int
}

func (c *spanComp) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	ws := &c.r.workers[ctx.WorkerID()]
	wrapped := &ws.ctxs[c.sendLayer]
	wrapped.Context = ctx
	start := ws.begin()
	err := c.inner.Compute(wrapped, v, msgs)
	ws.end(c.layer, start)
	return err
}

// spanCompReporter forwards pregel.CaptureTimeReporter, which the
// engine type-asserts on the computation it runs.
type spanCompReporter struct {
	*spanComp
	rep pregel.CaptureTimeReporter
}

func (c spanCompReporter) CaptureNanos(w int) int64 { return c.rep.CaptureNanos(w) }

// wrapCompute wraps comp as layer, forwarding the optional interfaces
// it implements so the engine takes the same code paths.
func (r *recorder) wrapCompute(comp pregel.Computation, layer, sendLayer int) pregel.Computation {
	c := &spanComp{r: r, inner: comp, layer: layer, sendLayer: sendLayer}
	if rep, ok := comp.(pregel.CaptureTimeReporter); ok {
		return spanCompReporter{c, rep}
	}
	return c
}

// spanCtx times sends; every other Context method is the wrapped one.
type spanCtx struct {
	pregel.Context
	ws    *workerSpans
	layer int
}

func (c *spanCtx) SendMessage(to pregel.VertexID, msg pregel.Value) {
	start := c.ws.begin()
	c.Context.SendMessage(to, msg)
	c.ws.end(c.layer, start)
}

func (c *spanCtx) SendMessageToAllEdges(v *pregel.Vertex, msg pregel.Value) {
	start := c.ws.begin()
	c.Context.SendMessageToAllEdges(v, msg)
	c.ws.end(c.layer, start)
}

// --- MasterComputation ---

type spanMaster struct {
	r     *recorder
	inner pregel.MasterComputation
}

func (m *spanMaster) Compute(ctx pregel.MasterContext) error {
	start := now()
	err := m.inner.Compute(ctx)
	m.r.masterNs += now() - start
	return err
}

func (r *recorder) wrapMaster(m pregel.MasterComputation) pregel.MasterComputation {
	if m == nil {
		return nil
	}
	return &spanMaster{r: r, inner: m}
}

// --- JobListener ---

// spanListener records superstep spans and forwards every callback.
type spanListener struct {
	r     *recorder
	inner pregel.JobListener
}

func (l *spanListener) JobStarted(info pregel.JobInfo) {
	l.r.startedNs = now()
	l.r.lastBarrierNs = l.r.startedNs
	l.r.ckptMarkNs = l.r.fs[fsCheckpoint].writeNs.Load()
	if l.inner != nil {
		l.inner.JobStarted(info)
	}
}

func (l *spanListener) SuperstepStarted(superstep int, info pregel.SuperstepInfo) {
	r := l.r
	t := now()
	ckpt := r.fs[fsCheckpoint].writeNs.Load()
	r.steps = append(r.steps, stepSpan{
		Superstep:    superstep,
		StartNs:      t,
		MasterNs:     r.masterNs,
		CheckpointNs: ckpt - r.ckptMarkNs,
		GapNs:        max(0, t-r.lastBarrierNs-r.masterNs-(ckpt-r.ckptMarkNs)),
	})
	r.cur = &r.steps[len(r.steps)-1]
	r.masterNs = 0
	if l.inner != nil {
		l.inner.SuperstepStarted(superstep, info)
	}
}

func (l *spanListener) SuperstepFinished(superstep int, stats pregel.SuperstepStats) {
	r := l.r
	t := now()
	if s := r.cur; s != nil {
		s.EndNs = t
		for _, w := range stats.Workers {
			s.BusyMaxNs = max(s.BusyMaxNs, int64(w.ComputeTime))
		}
		s.WaitNs = int64(stats.BarrierWait)
		for w := range r.workers {
			ws := &r.workers[w]
			for layer := range ws.self {
				if ws.calls[layer] > 0 {
					s.Layers = append(s.Layers, layerSpan{Name: layerNames[layer], Worker: w,
						SelfNs: ws.self[layer], Calls: ws.calls[layer]})
				}
				ws.self[layer], ws.calls[layer] = 0, 0
			}
		}
	}
	r.lastBarrierNs = t
	r.ckptMarkNs = r.fs[fsCheckpoint].writeNs.Load()
	if l.inner != nil {
		l.inner.SuperstepFinished(superstep, stats)
	}
}

func (l *spanListener) JobFinished(stats *pregel.Stats, err error) {
	start := now()
	if l.inner != nil {
		l.inner.JobFinished(stats, err)
	}
	l.r.sealNs = now() - start
}

// flushListener forwards pregel.BarrierFlusher, timing each flush.
type flushListener struct {
	*spanListener
	bf pregel.BarrierFlusher
}

func (l flushListener) BarrierFlush(superstep int) error {
	start := now()
	err := l.bf.BarrierFlush(superstep)
	if s := l.r.cur; s != nil {
		s.FlushNs += now() - start
	}
	return err
}

// flushQueueListener also forwards pregel.CaptureQueueReporter.
type flushQueueListener struct {
	flushListener
	qr pregel.CaptureQueueReporter
}

func (l flushQueueListener) CaptureQueueDepth() int {
	d := l.qr.CaptureQueueDepth()
	if s := l.r.cur; s != nil {
		s.QueueDepth = d
	}
	l.r.queuePeak = max(l.r.queuePeak, d)
	return d
}

// wrapListener wraps inner (nil allowed), forwarding exactly the
// optional interfaces it implements.
func (r *recorder) wrapListener(inner pregel.JobListener) pregel.JobListener {
	l := &spanListener{r: r, inner: inner}
	bf, ok := inner.(pregel.BarrierFlusher)
	if !ok {
		return l
	}
	fl := flushListener{l, bf}
	if qr, ok := inner.(pregel.CaptureQueueReporter); ok {
		return flushQueueListener{fl, qr}
	}
	return fl
}

// --- dfs.FileSystem ---

// spanFS times and counts every byte through a file system.
type spanFS struct {
	r     *recorder
	inner dfs.FileSystem
}

func (f *spanFS) Create(path string) (io.WriteCloser, error) {
	c := &f.r.fs[classify(path)]
	start := now()
	w, err := f.inner.Create(path)
	c.writeNs.Add(now() - start)
	if err != nil {
		return nil, err
	}
	c.files.Add(1)
	return &spanWriter{c: c, w: w}, nil
}

func (f *spanFS) Open(path string) (io.ReadCloser, error) {
	c := &f.r.fs[classify(path)]
	start := now()
	rc, err := f.inner.Open(path)
	c.readNs.Add(now() - start)
	if err != nil {
		return nil, err
	}
	return &spanReader{c: c, r: rc}, nil
}

func (f *spanFS) List(prefix string) ([]string, error) { return f.inner.List(prefix) }
func (f *spanFS) Remove(path string) error             { return f.inner.Remove(path) }

type spanWriter struct {
	c *fsCounters
	w io.WriteCloser
}

func (w *spanWriter) Write(p []byte) (int, error) {
	start := now()
	n, err := w.w.Write(p)
	w.c.writeNs.Add(now() - start)
	w.c.writeBytes.Add(int64(n))
	return n, err
}

func (w *spanWriter) Close() error {
	start := now()
	err := w.w.Close()
	w.c.writeNs.Add(now() - start)
	return err
}

type spanReader struct {
	c *fsCounters
	r io.ReadCloser
}

func (r *spanReader) Read(p []byte) (int, error) {
	start := now()
	n, err := r.r.Read(p)
	r.c.readNs.Add(now() - start)
	r.c.readBytes.Add(int64(n))
	return n, err
}

func (r *spanReader) Close() error { return r.r.Close() }

// The trace layer and the engine type-assert pregel.FaultStatsProvider
// and this on the file systems they are handed; the wrappers forward
// them when the wrapped file system has them.
type degradedPaths interface{ DegradedPaths() []string }

type spanFSFaults struct {
	*spanFS
	p pregel.FaultStatsProvider
}

func (f spanFSFaults) FaultStats() pregel.FaultStats { return f.p.FaultStats() }

type spanFSDegraded struct {
	*spanFS
	d degradedPaths
}

func (f spanFSDegraded) DegradedPaths() []string { return f.d.DegradedPaths() }

type spanFSBoth struct {
	spanFSFaults
	d degradedPaths
}

func (f spanFSBoth) DegradedPaths() []string { return f.d.DegradedPaths() }

func (r *recorder) wrapFS(fs dfs.FileSystem) dfs.FileSystem {
	f := &spanFS{r: r, inner: fs}
	p, hasFaults := fs.(pregel.FaultStatsProvider)
	d, hasDegraded := fs.(degradedPaths)
	switch {
	case hasFaults && hasDegraded:
		return spanFSBoth{spanFSFaults{f, p}, d}
	case hasFaults:
		return spanFSFaults{f, p}
	case hasDegraded:
		return spanFSDegraded{f, d}
	}
	return f
}

// --- per-job layer totals ---

// layerTotals sums a recorder's spans into per-layer numbers.
type layerTotals struct {
	self, calls                          [nLayers]int64
	masterNs, flushNs, barrierNs, waitNs int64
	stepNs                               []float64
}

func (r *recorder) totals() layerTotals {
	var t layerTotals
	idx := map[string]int{}
	for i, n := range layerNames {
		idx[n] = i
	}
	for _, s := range r.steps {
		for _, l := range s.Layers {
			t.self[idx[l.Name]] += l.SelfNs
			t.calls[idx[l.Name]] += l.Calls
		}
		t.masterNs += s.MasterNs
		t.flushNs += s.FlushNs
		t.waitNs += s.WaitNs
		span := s.EndNs - s.StartNs
		t.stepNs = append(t.stepNs, float64(span))
		t.barrierNs += max(0, span-s.BusyMaxNs-s.FlushNs)
	}
	return t
}

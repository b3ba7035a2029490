package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"graft/internal/dfs"
	"graft/internal/gui"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// Page kinds of an inspect session, in the order a user drills into
// one (vertex, superstep) pair.
const (
	pageNodeLink = iota
	pageTabular
	pageViolations
	pageVertex
	pageReproduce
	nPageKinds
)

var pageKindNames = [nPageKinds]string{"nodelink", "tabular", "violations", "vertex", "reproduce"}

type page struct {
	kind      int
	superstep int
	id        pregel.VertexID
}

func (p page) url(jobID string) string {
	u := fmt.Sprintf("/job/%s/%s?superstep=%d", jobID, pageKindNames[p.kind], p.superstep)
	if p.kind == pageTabular || p.kind == pageVertex || p.kind == pageReproduce {
		key := "id"
		if p.kind == pageTabular {
			key = "vertex"
		}
		u += fmt.Sprintf("&%s=%d", key, p.id)
	}
	return u
}

// sessionPages draws `pairs` (superstep, vertex) pairs from the
// trace's own captures and expands each into the five page kinds. The
// draw is systematic: the captures, in superstep order, are cut into
// `pairs` equal runs and the middle of each is taken. Supersteps are
// thus visited in proportion to their captures, as random clicks on
// captured vertices would. Within a superstep, captures are ordered by
// their vertex's number before the seed's renumbering (perm, see
// renumber), so every seed visits the same vertices of the same graph,
// under their renumbered IDs: a page's cost grows with the captures of
// its superstep and the degree of its vertex.
func sessionPages(v trace.View, pairs int, perm []int) []page {
	orig := make(map[pregel.VertexID]int, len(perm))
	for i, id := range perm {
		orig[pregel.VertexID(id)] = i
	}
	var all []*trace.VertexCapture
	for _, s := range v.Supersteps() {
		cs := append([]*trace.VertexCapture(nil), v.CapturesAt(s)...)
		sort.Slice(cs, func(i, j int) bool { return orig[cs[i].ID] < orig[cs[j].ID] })
		all = append(all, cs...)
	}
	if len(all) == 0 || pairs <= 0 {
		return nil
	}
	step := float64(len(all)) / float64(pairs)
	var out []page
	for i := 0; i < pairs; i++ {
		c := all[int((float64(i)+0.5)*step)]
		for k := 0; k < nPageKinds; k++ {
			out = append(out, page{kind: k, superstep: c.Superstep, id: c.ID})
		}
	}
	return out
}

// drawPages opens the inspected trace and draws the session's pages.
func drawPages(cluster *dfs.Cluster, jobID string, pairs int, perm []int) ([]page, error) {
	r, err := trace.NewStore(cluster, traceRoot).OpenReader(jobID)
	if err != nil {
		return nil, fmt.Errorf("opening the inspected trace: %w", err)
	}
	pages := sessionPages(r, pairs, perm)
	if len(pages) == 0 {
		return nil, fmt.Errorf("the inspected trace has no captures")
	}
	return pages, r.Err()
}

// reproSpec is what the GUI's Reproduce Context page generates code
// for; graft-gui registers the same one for "mwm".
var reproSpec = repro.GenSpec{
	ComputationExpr: fmt.Sprintf("algorithms.NewMaximumWeightMatching(%d).Compute", mwmMaxSupersteps),
	ExtraImports:    []string{"graft/internal/algorithms"},
	Assert:          true,
}

// lookups makes the trace.View calls a page's handler makes, directly
// on a Reader: the page's cost without the GUI and code generation.
func lookups(v trace.View, p page) {
	if p.kind == pageReproduce {
		v.Capture(p.superstep, p.id)
		v.MetaAt(p.superstep)
		v.JobMeta()
		return
	}
	// Superstep clamping and the navigation bar, common to every view.
	v.MaxSuperstep()
	v.MetaAt(p.superstep)
	v.Supersteps()
	v.JobMeta()
	v.StatusAt(p.superstep)
	switch p.kind {
	case pageNodeLink:
		v.CapturesAt(p.superstep)
	case pageTabular:
		id := p.id
		v.Search(trace.Query{Superstep: p.superstep, VertexID: &id})
	case pageViolations:
		v.ViolationsAt(p.superstep)
	case pageVertex:
		v.Capture(p.superstep, p.id)
	}
}

// session is one measured inspect session.
type session struct {
	pageMs, lookupMs, renderMs, reproMs []float64
	openMs                              float64
	// wallS is the session's wall time, from creating the gui.Server
	// until the last page returns: the cold open, every page and the
	// client's work between pages.
	wallS                       float64
	allocMB, heapPeakMB, readMB float64
	segmentReads                int64
	gc                          runtimeSample // GC work during the session
	rec                         *recorder     // traced sessions only
}

// Session modes.
const (
	plainSession = iota
	// tracedSession serves the GUI from a span-recording file system,
	// and after each page makes the page's lookups and, for reproduce
	// pages, its code generation directly on a separate cold Reader.
	tracedSession
	// heapSession forces a collection after every page to read the
	// true live heap (see heapProbe); its timings are not used.
	heapSession
)

// inspect runs one cold session: a fresh gui.Server over the trace,
// then every page in order through its handler, in-process.
func inspect(cluster *dfs.Cluster, jobID string, pages []page, mode int, p *probe, t *tally) session {
	runtime.GC()
	var s session
	first := p.read()
	var fs dfs.FileSystem = cluster
	var direct *trace.Reader
	if mode == tracedSession {
		s.rec = newRecorder(1)
		fs = s.rec.wrapFS(cluster)
		start := time.Now()
		var err error
		direct, err = trace.NewStore(cluster, traceRoot).OpenReader(jobID)
		s.openMs = float64(time.Since(start)) / 1e6
		if !t.check(err == nil, "%s: cold open: %v", jobID, err) {
			return s
		}
	}
	sessionStart := time.Now()
	srv := gui.NewServer(trace.NewStore(fs, traceRoot))
	srv.RegisterReproSpec("mwm", reproSpec)
	h := srv.Handler()

	var allocs, read, peak uint64
	for _, pg := range pages {
		req := httptest.NewRequest(http.MethodGet, pg.url(jobID), nil)
		rw := httptest.NewRecorder()
		before := p.read()
		readBefore := cluster.Stats().BytesRead
		start := time.Now()
		h.ServeHTTP(rw, req)
		ms := float64(time.Since(start)) / 1e6
		read += uint64(cluster.Stats().BytesRead - readBefore)
		after := p.read()
		allocs += after.allocs - before.allocs
		s.pageMs = append(s.pageMs, ms)
		t.check(rw.Code == http.StatusOK && rw.Body.Len() > 0,
			"%s: page %s returned %d with %d bytes", jobID, pg.url(jobID), rw.Code, rw.Body.Len())

		switch mode {
		case heapSession:
			// Once per (superstep, vertex) pair: a collection per page
			// would double the session's time for the same peak.
			if pg.kind == nPageKinds-1 {
				runtime.GC()
				peak = max(peak, p.read().live)
			}
		case tracedSession:
			start = time.Now()
			lookups(direct, pg)
			lk := float64(time.Since(start)) / 1e6
			s.lookupMs = append(s.lookupMs, lk)
			s.renderMs = append(s.renderMs, max(0, ms-lk))
			if pg.kind == pageReproduce {
				start = time.Now()
				_, err := repro.GenerateVertexTest(direct, pg.superstep, pg.id, reproSpec)
				s.reproMs = append(s.reproMs, float64(time.Since(start))/1e6)
				t.check(err == nil, "%s: generating the reproduction of %d@%d: %v", jobID, pg.id, pg.superstep, err)
			}
		}
	}
	s.wallS = time.Since(sessionStart).Seconds()
	if direct != nil {
		t.check(direct.Err() == nil, "%s: direct reader: %v", jobID, direct.Err())
		s.segmentReads = direct.SegmentReads()
	}
	s.allocMB = float64(allocs) / mb
	s.heapPeakMB = float64(peak) / mb
	s.readMB = float64(read) / mb
	last := p.read()
	s.gc = runtimeSample{gcCPU: last.gcCPU - first.gcCPU, gcCycles: last.gcCycles - first.gcCycles}
	return s
}

// lookupTimes makes each page's lookups on one cold Reader, without
// the GUI, and returns their times in ms. Their mean is inspect-mwm's
// baseline: the times cluster by page kind, and the median of such a
// mix moved by ±15% between runs of one seed where the mean moved by
// ±4%.
func lookupTimes(cluster *dfs.Cluster, jobID string, pages []page, t *tally) []float64 {
	runtime.GC()
	r, err := trace.NewStore(cluster, traceRoot).OpenReader(jobID)
	if !t.check(err == nil, "%s: cold open: %v", jobID, err) {
		return nil
	}
	var ms []float64
	for _, pg := range pages {
		start := time.Now()
		lookups(r, pg)
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	t.check(r.Err() == nil, "%s: direct reader: %v", jobID, r.Err())
	return ms
}

// sessionLayers turns the traced sessions into per-layer metrics.
func sessionLayers(traced []session) map[string]float64 {
	m := map[string]float64{}
	var open, segs, lookupUs, render, reproMs, readS, readMB []float64
	for _, s := range traced {
		open = append(open, s.openMs)
		segs = append(segs, float64(s.segmentReads))
		for _, l := range s.lookupMs {
			lookupUs = append(lookupUs, l*1000)
		}
		render = append(render, s.renderMs...)
		reproMs = append(reproMs, s.reproMs...)
		fm := map[string]float64{}
		fsMetrics(fm, s.rec)
		readS = append(readS, fm["dfs.read_s"])
		readMB = append(readMB, fm["dfs.read_mb"])
	}
	m["trace.open_ms"] = median(open)
	m["trace.lookup_p50_us"] = quantile(lookupUs, 0.5)
	m["trace.lookup_p90_us"] = quantile(lookupUs, 0.9)
	m["trace.segment_reads"] = median(segs)
	m["dfs.read_s"] = median(readS)
	m["dfs.read_mb"] = median(readMB)
	m["repro.gen_ms"] = median(reproMs)
	m["gui.render_ms"] = median(render)
	return m
}

// kindMedians returns, for each page kind, the median latency of the
// sessions' pages of that kind.
func kindMedians(ss []session, pages []page) (out [nPageKinds]float64) {
	for k := range out {
		var ms []float64
		for _, s := range ss {
			for i, pg := range pages {
				if pg.kind == k {
					ms = append(ms, s.pageMs[i])
				}
			}
		}
		out[k] = median(ms)
	}
	return out
}

// pageTimes pools the page latencies of sessions.
func pageTimes(ss []session) []float64 {
	var ms []float64
	for _, s := range ss {
		ms = append(ms, s.pageMs...)
	}
	return ms
}

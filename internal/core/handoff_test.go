package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// The instrumenter buffers a vertex's sends and hands them to the
// engine after the capture decision. These tests pin that the handoff
// is exact: the debugged job ends in the same state as the detached
// one, and every capture records what the vertex actually sent.

type sendKey struct {
	superstep int
	id        pregel.VertexID
}

// sendLog records, per compute call, every message a vertex sent,
// cloned at send time, with a fan-out expanded along the edges the
// vertex had when it sent.
type sendLog struct {
	mu   sync.Mutex
	sent map[sendKey][]trace.OutMsg
}

type loggingCtx struct {
	pregel.Context
	out []trace.OutMsg
}

func (c *loggingCtx) SendMessage(to pregel.VertexID, msg pregel.Value) {
	c.out = append(c.out, trace.OutMsg{To: to, Value: msg.Clone()})
	c.Context.SendMessage(to, msg)
}

func (c *loggingCtx) SendMessageToAllEdges(v *pregel.Vertex, msg pregel.Value) {
	for _, e := range v.Edges() {
		c.out = append(c.out, trace.OutMsg{To: e.Target, Value: msg.Clone()})
	}
	c.Context.SendMessageToAllEdges(v, msg)
}

func (l *sendLog) wrap(comp pregel.Computation) pregel.Computation {
	return pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		lc := &loggingCtx{Context: ctx}
		defer func() { // deferred, so a panicking call's sends are logged too
			l.mu.Lock()
			l.sent[sendKey{ctx.Superstep(), v.ID()}] = lc.out
			l.mu.Unlock()
		}()
		return comp.Compute(lc, v, msgs)
	})
}

// statsListener keeps the Stats the engine hands JobFinished, which
// it does on failed jobs too.
type statsListener struct{ stats pregel.Stats }

func (*statsListener) JobStarted(pregel.JobInfo)                    {}
func (*statsListener) SuperstepStarted(int, pregel.SuperstepInfo)   {}
func (*statsListener) SuperstepFinished(int, pregel.SuperstepStats) {}
func (l *statsListener) JobFinished(stats *pregel.Stats, _ error)   { l.stats = *stats }

type handoffResult struct {
	digest string
	stats  pregel.Stats
	err    error
}

// checkHandoff runs comp over a clone of g detached and debugged under
// dc, requires both to end in the same vertex values, message total
// and error, and requires every capture's Outgoing to equal what the
// detached vertex sent in the same compute call. It returns the
// debugged session and trace for case-specific checks.
func checkHandoff(t *testing.T, g *pregel.Graph, comp pregel.Computation,
	cfg pregel.Config, dc DebugConfig) (*Graft, trace.View) {
	t.Helper()
	if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = 8
	}

	log := &sendLog{sent: map[sendKey][]trace.OutMsg{}}
	gd := g.Clone()
	dl := &statsListener{}
	dcfg := cfg
	dcfg.Listener = dl
	_, derr := pregel.NewJob(gd, log.wrap(comp), dcfg).Run()
	detached := handoffResult{gd.ValuesDigest(), dl.stats, derr}

	gg := g.Clone()
	gl := &statsListener{}
	gcfg := cfg
	gcfg.Listener = gl
	view, session, gerr := runDebugged(t, &algorithms.Algorithm{Name: "handoff", Compute: comp}, gg, gcfg, dc)
	debugged := handoffResult{gg.ValuesDigest(), gl.stats, gerr}

	if debugged.digest != detached.digest {
		t.Errorf("values digest: debugged %s, detached %s", debugged.digest, detached.digest)
	}
	if debugged.stats.TotalMessages != detached.stats.TotalMessages {
		t.Errorf("TotalMessages: debugged %d, detached %d",
			debugged.stats.TotalMessages, detached.stats.TotalMessages)
	}
	if debugged.stats.Supersteps != detached.stats.Supersteps {
		t.Errorf("supersteps: debugged %d, detached %d",
			debugged.stats.Supersteps, detached.stats.Supersteps)
	}
	if !sameComputeError(debugged.err, detached.err) {
		t.Errorf("job error: debugged %v, detached %v", debugged.err, detached.err)
	}

	compared := 0
	for _, s := range view.Supersteps() {
		for _, c := range view.CapturesAt(s) {
			want, ok := log.sent[sendKey{s, c.ID}]
			if !ok {
				t.Errorf("superstep %d vertex %d captured but never computed detached", s, c.ID)
				continue
			}
			if got := outString(c.Outgoing); got != outString(want) {
				t.Errorf("superstep %d vertex %d Outgoing = %s, sent %s", s, c.ID, got, outString(want))
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no captures to compare")
	}
	return session, view
}

// sameComputeError reports whether a and b fail the same vertex at
// the same superstep (or are both nil). A debugged panic reaches the
// engine as a returned PanicError, a detached one as a raw panic, so
// only the location is compared.
func sameComputeError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var ca, cb *pregel.ComputeError
	return errors.As(a, &ca) && errors.As(b, &cb) &&
		ca.VertexID == cb.VertexID && ca.Superstep == cb.Superstep
}

func outString(out []trace.OutMsg) string {
	s := ""
	for _, m := range out {
		s += fmt.Sprintf("%d:%s ", m.To, pregel.ValueString(m.Value))
	}
	return s
}

func long(v pregel.Value) int64 { return v.(*pregel.LongValue).Get() }

// sumCombiner adds b into a in place, the way a combiner may.
var sumCombiner = pregel.CombineFunc(func(_ pregel.VertexID, a, b pregel.Value) pregel.Value {
	a.(*pregel.LongValue).Set(long(a) + long(b))
	return a
})

// TestHandoffSenderSideCombining: on a multigraph with duplicate
// parallel edges, sender-side combining folds later sends into stored
// entries in place. That includes the original fan-out Value: it goes
// on the last edge, to a target no earlier edge reaches, so it is the
// stored entry a following SendMessage to that target combines into.
// The record must hold the values as sent, not as combined.
func TestHandoffSenderSideCombining(t *testing.T) {
	const n = 24
	g := pregel.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), pregel.NewLong(0))
	}
	for i := 0; i < n; i++ {
		id := pregel.VertexID(i)
		next, skip, far := pregel.VertexID((i+1)%n), pregel.VertexID((i+5)%n), pregel.VertexID((i+9)%n)
		for _, to := range []pregel.VertexID{next, skip, next, skip, far} {
			if err := g.AddEdge(id, to, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		sum := int64(v.ID())
		for _, m := range msgs {
			sum += long(m)
		}
		sum %= 1000
		v.SetValue(pregel.NewLong(sum))
		if ctx.Superstep() >= 5 {
			v.VoteToHalt()
			return nil
		}
		ctx.SendMessageToAllEdges(v, pregel.NewLong(sum))
		edges := v.Edges()
		ctx.SendMessage(edges[len(edges)-1].Target, pregel.NewLong(1))
		ctx.SendMessage(edges[0].Target, pregel.NewLong(2))
		return nil
	})
	t.Run("lanes", func(t *testing.T) {
		checkHandoff(t, g, comp, pregel.Config{NumWorkers: 2, Combiner: sumCombiner},
			DebugConfig{
				CaptureIDs: []pregel.VertexID{0, 7},
				MessageConstraint: func(msg pregel.Value, _, _ pregel.VertexID, _ int) bool {
					return long(msg)%9 != 0
				},
			})
	})
}

// TestHandoffEdgesChangedAfterFanout: a vertex that fans out and then
// adds or removes edges in the same Compute delivers to the edges as
// they were when it sent, captured or not.
func TestHandoffEdgesChangedAfterFanout(t *testing.T) {
	const n = 30
	g := pregel.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), pregel.NewLong(0))
	}
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 2, 3} {
			if err := g.AddEdge(pregel.VertexID(i), pregel.VertexID((i+d)%n), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		// A vertex's value is a checksum of who sent it what, so a
		// message delivered along the wrong edges changes the digest.
		sum := long(v.Value())
		for _, m := range msgs {
			sum = (sum*31 + long(m)) % 1000003
		}
		v.SetValue(pregel.NewLong(sum))
		if ctx.Superstep() >= 4 {
			v.VoteToHalt()
			return nil
		}
		ctx.SendMessageToAllEdges(v, pregel.NewLong(int64(v.ID())+1))
		id, s := int(v.ID()), ctx.Superstep()
		switch (id + s) % 4 {
		case 0: // removes an edge the fan-out went along
			v.RemoveEdges(v.Edges()[0].Target)
		case 1: // grows the edge list
			v.AddEdge(pregel.Edge{Target: pregel.VertexID((id + 7 + s) % n)})
		case 2: // same length, different targets
			v.RemoveEdges(v.Edges()[1].Target)
			v.AddEdge(pregel.Edge{Target: pregel.VertexID((id + 11) % n)})
		}
		return nil
	})
	checkHandoff(t, g, comp, pregel.Config{NumWorkers: 2},
		DebugConfig{CaptureIDs: []pregel.VertexID{0, 1, 2, 3, 17}})
}

// TestHandoffSendThenPanic: a Compute that sends and then panics is
// captured with the sends it made, and those sends still reach the
// engine, exactly as the detached vertex's did.
func TestHandoffSendThenPanic(t *testing.T) {
	const n, boom = 20, 7
	g := pregel.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), pregel.NewLong(int64(i)))
	}
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 3} {
			if err := g.AddEdge(pregel.VertexID(i), pregel.VertexID((i+d)%n), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		sum := long(v.Value())
		for _, m := range msgs {
			sum += long(m)
		}
		v.SetValue(pregel.NewLong(sum))
		ctx.SendMessageToAllEdges(v, pregel.NewLong(sum))
		ctx.SendMessage(pregel.VertexID((int(v.ID())+2)%n), pregel.NewLong(-sum))
		if v.ID() == boom && ctx.Superstep() == 2 {
			panic("planted after sending")
		}
		return nil
	})
	session, view := checkHandoff(t, g, comp, pregel.Config{NumWorkers: 2},
		DebugConfig{CaptureExceptions: true})
	if session.Captures() != 1 {
		t.Errorf("captures = %d, want 1", session.Captures())
	}
	c := view.Capture(2, boom)
	if c == nil || c.Exception == nil || len(c.Outgoing) != 3 {
		t.Fatalf("panicking vertex capture = %+v", c)
	}

	// The failed superstep never reaches a barrier, so the handoff on
	// the panic path is checked against an engine stand-in.
	dg := instrumentStandIn(t, DebugConfig{CaptureExceptions: true}, comp)
	v := pregel.NewDetachedVertex(boom, pregel.NewLong(5))
	v.AddEdge(pregel.Edge{Target: 8})
	v.AddEdge(pregel.Edge{Target: 10})
	ctx := &engineStandIn{superstep: 2}
	var pe *PanicError
	if err := dg.Compute(ctx, v, nil); !errors.As(err, &pe) {
		t.Fatalf("Compute error = %v, want a PanicError", err)
	}
	if got, want := outString(ctx.sent), "8:5 10:5 9:-5 "; got != want {
		t.Errorf("handed off %s, want %s", got, want)
	}
}

// TestHandoffMaxCapturesSkipped: vertices whose capture the
// MaxCaptures safety net skips still deliver everything they sent.
func TestHandoffMaxCapturesSkipped(t *testing.T) {
	const n = 40
	g := pregel.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), pregel.NewLong(int64(i)))
	}
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 4, 9} {
			if err := g.AddEdge(pregel.VertexID(i), pregel.VertexID((i+d)%n), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		max := long(v.Value())
		for _, m := range msgs {
			if x := long(m); x > max {
				max = x
			}
		}
		v.SetValue(pregel.NewLong(max))
		if ctx.Superstep() >= 5 {
			v.VoteToHalt()
			return nil
		}
		ctx.SendMessageToAllEdges(v, pregel.NewLong(max))
		return nil
	})
	session, _ := checkHandoff(t, g, comp, pregel.Config{NumWorkers: 2},
		DebugConfig{CaptureAllActive: true, MaxCaptures: 5})
	if !session.LimitHit() || session.Captures() != 5 {
		t.Errorf("captures = %d, limit hit = %v; want 5 and true", session.Captures(), session.LimitHit())
	}
}

// TestUncapturedComputeAllocs pins "pay only for what is captured": an
// observed vertex that is not captured, under a DC-msg-style config,
// allocates at most what the same call allocates detached (the user's
// own allocations and the engine's fan-out clones) plus one, its
// pre-compute value snapshot, however many messages it sends.
func TestUncapturedComputeAllocs(t *testing.T) {
	comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		ctx.SendMessageToAllEdges(v, pregel.NewLong(long(v.Value())))
		return nil
	})
	dc := DebugConfig{MessageConstraint: func(msg pregel.Value, _, _ pregel.VertexID, _ int) bool {
		return long(msg) >= 0
	}}
	ic := instrumentStandIn(t, dc, comp)
	for _, k := range []int{1, 16, 256} {
		v := pregel.NewDetachedVertex(1, pregel.NewLong(3))
		for i := 0; i < k; i++ {
			v.AddEdge(pregel.Edge{Target: pregel.VertexID(i + 2)})
		}
		ctx := &engineStandIn{sent: make([]trace.OutMsg, 0, k)}
		detached := testing.AllocsPerRun(50, func() {
			ctx.sent = ctx.sent[:0]
			_ = comp.Compute(ctx, v, nil)
		})
		debugged := testing.AllocsPerRun(50, func() {
			ctx.sent = ctx.sent[:0]
			_ = ic.Compute(ctx, v, nil)
		})
		if len(ctx.sent) != k {
			t.Fatalf("k=%d: %d messages handed off", k, len(ctx.sent))
		}
		if debugged > detached+1 {
			t.Errorf("k=%d: uncaptured debugged compute allocates %.0f, detached %.0f; want at most %.0f",
				k, debugged, detached, detached+1)
		}
	}
	if n := ic.(*instrumentedComputation).g.Captures(); n != 0 {
		t.Errorf("captures = %d, want 0", n)
	}
}

// instrumentStandIn attaches a one-worker session with dc to a small stand-in
// graph and returns comp instrumented by it. The session is finished
// when the test ends.
func instrumentStandIn(t *testing.T, dc DebugConfig, comp pregel.Computation) pregel.Computation {
	t.Helper()
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	g := pregel.NewGraph()
	g.AddVertex(0, pregel.NewLong(0))
	session, err := Attach(store, Options{JobID: "standin", NumWorkers: 1}, g, dc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { session.JobFinished(nil, nil) })
	return session.Instrument(comp)
}

// engineStandIn is a one-worker pregel.Context that records what is
// handed to it, fanning out the way the engine does: clones on every
// edge but the last, which gets the original.
type engineStandIn struct {
	superstep int
	sent      []trace.OutMsg
}

func (c *engineStandIn) Superstep() int                                 { return c.superstep }
func (c *engineStandIn) TotalNumVertices() int64                        { return 1 }
func (c *engineStandIn) TotalNumEdges() int64                           { return 0 }
func (c *engineStandIn) WorkerID() int                                  { return 0 }
func (c *engineStandIn) GetAggregated(string) pregel.Value              { return nil }
func (c *engineStandIn) Aggregate(string, pregel.Value)                 {}
func (c *engineStandIn) RemoveVertexRequest(pregel.VertexID)            {}
func (c *engineStandIn) AddVertexRequest(pregel.VertexID, pregel.Value) {}

func (c *engineStandIn) SendMessage(to pregel.VertexID, msg pregel.Value) {
	c.sent = append(c.sent, trace.OutMsg{To: to, Value: msg})
}

func (c *engineStandIn) SendMessageToAllEdges(v *pregel.Vertex, msg pregel.Value) {
	edges := v.Edges()
	for i, e := range edges {
		m := msg
		if i < len(edges)-1 {
			m = msg.Clone()
		}
		c.SendMessage(e.Target, m)
	}
}

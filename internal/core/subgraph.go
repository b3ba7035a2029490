package core

import (
	"fmt"
	"runtime/debug"
	"time"

	"graft/internal/pregel"
	"graft/internal/trace"
)

// InstrumentSubgraph wraps a subgraph computation with Graft's capture
// logic, the subgraph-mode counterpart of Instrument. When a captured
// subgraph computes, every member vertex gets a full VertexCapture —
// its incoming messages, the sends attributed to it, value before and
// after — so a subgraph step stays single-vertex debuggable, plus one
// SubgraphCapture carrying the component structure, the internal
// iteration count and the per-component value digest.
func (g *Graft) InstrumentSubgraph(comp pregel.SubgraphComputation) pregel.SubgraphComputation {
	is := &instrumentedSubgraph{g: g, user: comp, rscs: make([]recordingSubgraphContext, len(g.capNanos))}
	for i := range is.rscs {
		is.rscs[i].g = g
	}
	return is
}

type instrumentedSubgraph struct {
	g    *Graft
	user pregel.SubgraphComputation
	// rscs holds one reusable recording context per worker, recycled
	// like the vertex-mode recordingContext.
	rscs []recordingSubgraphContext
}

// CaptureNanos implements pregel.CaptureTimeReporter; see
// instrumentedComputation.CaptureNanos.
func (is *instrumentedSubgraph) CaptureNanos(w int) int64 {
	if w >= len(is.g.capNanos) {
		return 0
	}
	return is.g.capNanos[w].n
}

// ComputeSubgraph implements pregel.SubgraphComputation.
func (is *instrumentedSubgraph) ComputeSubgraph(ctx pregel.SubgraphContext, sg *pregel.Subgraph) error {
	g := is.g
	superstep := ctx.Superstep()
	if !g.cfg.observes(superstep) {
		return is.user.ComputeSubgraph(ctx, sg)
	}

	members := sg.Members()
	anyStatic := false
	for _, v := range members {
		if g.reasons[v.ID()] != 0 {
			anyStatic = true
			break
		}
	}
	needPre := anyStatic || g.cfg.CaptureAllActive
	// Pre-compute snapshots follow the vertex-mode policy, but at
	// subgraph granularity: one member's static selection captures the
	// whole component, so every member's pre-state is snapshotted.
	var valuesBefore []pregel.Value
	if needPre || g.cfg.hasDynamicConstraints() {
		valuesBefore = make([]pregel.Value, len(members))
		for i, v := range members {
			valuesBefore[i] = pregel.CloneValue(v.Value())
		}
	}
	var edgesBefore [][]pregel.Edge
	if needPre {
		edgesBefore = make([][]pregel.Edge, len(members))
		for i, v := range members {
			edgesBefore[i] = cloneEdges(v.Edges())
		}
	}

	worker := ctx.WorkerID()
	if worker >= len(is.rscs) {
		panic(fmt.Sprintf("core: job runs with at least %d workers but Attach was told %d; "+
			"Options.NumWorkers must match pregel.Config.NumWorkers", worker+1, len(is.rscs)))
	}
	rsc := &is.rscs[worker]
	rsc.reset(ctx)

	// Per-member incoming-message constraint (§7 extension), checked
	// against the member's value at delivery time. The map is made on
	// the first violation, so a clean call allocates none.
	var violations map[pregel.VertexID][]trace.Violation
	addViolation := func(id pregel.VertexID, viol trace.Violation) {
		if violations == nil {
			violations = map[pregel.VertexID][]trace.Violation{}
		}
		violations[id] = append(violations[id], viol)
	}
	if g.cfg.IncomingMessageConstraint != nil {
		for i, v := range members {
			for _, m := range sg.Messages(i) {
				if !g.cfg.IncomingMessageConstraint(m, v.Value(), v.ID(), superstep) {
					addViolation(v.ID(), trace.Violation{
						Kind:  trace.IncomingMessageViolation,
						SrcID: -1,
						DstID: v.ID(),
						Value: pregel.CloneValue(m),
					})
				}
			}
		}
	}

	var exc *trace.ExceptionInfo
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				stack := string(debug.Stack())
				exc = &trace.ExceptionInfo{Message: fmt.Sprint(p), Stack: stack}
				err = &PanicError{Value: p, Stack: stack}
			}
		}()
		return is.user.ComputeSubgraph(rsc, sg)
	}()
	if err != nil && exc == nil {
		exc = &trace.ExceptionInfo{Message: err.Error()}
	}

	// Fold send-time message violations into their senders' rows.
	for _, viol := range rsc.violations {
		addViolation(viol.SrcID, viol)
	}
	if err == nil && g.cfg.VertexValueConstraint != nil {
		for _, v := range members {
			if !g.cfg.VertexValueConstraint(v.Value(), v.ID(), superstep) {
				addViolation(v.ID(), trace.Violation{
					Kind:  trace.VertexValueViolation,
					SrcID: v.ID(),
					DstID: v.ID(),
					Value: pregel.CloneValue(v.Value()),
				})
			}
		}
	}

	// The subgraph computes as a unit, so it is captured as a unit: any
	// member's reason captures every member.
	var subReasons trace.Reason
	for _, v := range members {
		subReasons |= g.reasons[v.ID()]
	}
	if g.cfg.CaptureAllActive {
		subReasons |= trace.ReasonAllActive
	}
	for _, vs := range violations {
		for _, viol := range vs {
			switch viol.Kind {
			case trace.VertexValueViolation:
				subReasons |= trace.ReasonVertexConstraint
			case trace.MessageViolation:
				subReasons |= trace.ReasonMessageConstraint
			case trace.IncomingMessageViolation:
				subReasons |= trace.ReasonIncomingConstraint
			}
		}
	}
	if err != nil && g.cfg.CaptureExceptions {
		subReasons |= trace.ReasonException
	}
	if subReasons != 0 {
		g.captureSubgraph(ctx, sg, rsc, valuesBefore, edgesBefore, violations, exc)
	}
	// As in vertex mode: the records hold their own clones, so the
	// buffered sends can go to the engine now.
	rsc.handoff()
	return err
}

// captureSubgraph writes one VertexCapture per member plus the
// SubgraphCapture summary, respecting the MaxCaptures safety net
// (each member record counts toward the limit, like vertex mode).
// It is the only subgraph-mode path timed into the worker's
// capture-time slot.
func (g *Graft) captureSubgraph(ctx pregel.SubgraphContext, sg *pregel.Subgraph,
	rsc *recordingSubgraphContext, valuesBefore []pregel.Value, edgesBefore [][]pregel.Edge,
	violations map[pregel.VertexID][]trace.Violation, exc *trace.ExceptionInfo) {

	if g.ctx.Err() != nil {
		return
	}
	start := time.Now()
	superstep, worker := ctx.Superstep(), ctx.WorkerID()
	defer func() { g.capNanos[worker].n += time.Since(start).Nanoseconds() }()
	members := sg.Members()
	sink := g.workerSinks[worker]
	memberIDs := make([]pregel.VertexID, len(members))
	outgoing := rsc.outgoing()

	for i, v := range members {
		memberIDs[i] = v.ID()

		if max := g.cfg.maxCaptures(); max >= 0 {
			if n := g.captures.Add(1); n > max {
				g.captures.Add(-1)
				g.limitHit.Store(true)
				continue
			}
		} else {
			g.captures.Add(1)
		}

		reasons := g.reasons[v.ID()]
		if g.cfg.CaptureAllActive {
			reasons |= trace.ReasonAllActive
		}
		for _, viol := range violations[v.ID()] {
			switch viol.Kind {
			case trace.VertexValueViolation:
				reasons |= trace.ReasonVertexConstraint
			case trace.MessageViolation:
				reasons |= trace.ReasonMessageConstraint
			case trace.IncomingMessageViolation:
				reasons |= trace.ReasonIncomingConstraint
			}
		}
		var memberExc *trace.ExceptionInfo
		if exc != nil && g.cfg.CaptureExceptions {
			reasons |= trace.ReasonException
			// The exception belongs to the whole ComputeSubgraph call; it
			// is recorded on the representative member (the subgraph ID).
			if v.ID() == sg.ID() {
				memberExc = exc
			}
		}
		if reasons == 0 {
			// Co-member of a captured component without its own trigger:
			// the closest existing category is neighborhood capture.
			reasons = trace.ReasonNeighbor
		}

		c := &trace.VertexCapture{
			Superstep:   superstep,
			Worker:      worker,
			ID:          v.ID(),
			Reasons:     reasons,
			ValueAfter:  pregel.CloneValue(v.Value()),
			HaltedAfter: rsc.halted,
			Violations:  violations[v.ID()],
			Exception:   memberExc,
		}
		if valuesBefore != nil {
			c.ValueBefore = valuesBefore[i]
		}
		if edgesBefore != nil {
			c.Edges = edgesBefore[i]
			c.EdgesPreCompute = true
		} else {
			c.Edges = cloneEdges(v.Edges())
		}
		in := sg.Messages(i)
		c.Incoming = make([]pregel.Value, len(in))
		for j, m := range in {
			c.Incoming[j] = pregel.CloneValue(m)
		}
		c.Outgoing = outgoing[v.ID()]
		_ = sink.WriteVertexCapture(c)
	}

	_ = sink.WriteSubgraphCapture(&trace.SubgraphCapture{
		Superstep:    superstep,
		Worker:       worker,
		ID:           sg.ID(),
		Members:      memberIDs,
		Iterations:   rsc.iterations,
		MessagesSent: int64(len(rsc.sends)),
		HaltedAfter:  rsc.halted,
		Digest:       sg.ValuesDigest(),
	})
}

// recordingSubgraphContext intercepts the subgraph context's sends (to
// check the message constraint and attribute outgoing messages to
// their sending member), halt votes, and iteration reports. Sends are
// buffered uncloned and handed off after the capture decision, for
// the reasons given on the vertex-mode recordingContext.
type recordingSubgraphContext struct {
	pregel.SubgraphContext
	g *Graft

	sends      []pendingSubgraphSend
	violations []trace.Violation
	iterations int64
	halted     bool
	_          [64]byte // see recordingContext
}

// pendingSubgraphSend is one buffered SendMessage.
type pendingSubgraphSend struct {
	from, to pregel.VertexID
	msg      pregel.Value
}

func (c *recordingSubgraphContext) reset(ctx pregel.SubgraphContext) {
	c.SubgraphContext = ctx
	c.sends = c.sends[:0]
	c.violations = nil // retained by the capture records, so never reused
	c.iterations, c.halted = 0, false
}

// SendMessage implements pregel.SubgraphContext.
func (c *recordingSubgraphContext) SendMessage(from, to pregel.VertexID, msg pregel.Value) {
	g := c.g
	if g.cfg.MessageConstraint != nil &&
		!g.cfg.MessageConstraint(msg, from, to, c.SubgraphContext.Superstep()) {
		c.violations = append(c.violations, trace.Violation{
			Kind:  trace.MessageViolation,
			SrcID: from,
			DstID: to,
			Value: pregel.CloneValue(msg),
		})
	}
	c.sends = append(c.sends, pendingSubgraphSend{from: from, to: to, msg: msg})
}

// outgoing deep-copies the buffered sends into per-member Outgoing
// lists, each in send order.
func (c *recordingSubgraphContext) outgoing() map[pregel.VertexID][]trace.OutMsg {
	out := map[pregel.VertexID][]trace.OutMsg{}
	for _, s := range c.sends {
		out[s.from] = append(out[s.from], trace.OutMsg{To: s.to, Value: pregel.CloneValue(s.msg)})
	}
	return out
}

// handoff forwards the buffered sends to the engine in order.
func (c *recordingSubgraphContext) handoff() {
	for _, s := range c.sends {
		c.SubgraphContext.SendMessage(s.from, s.to, s.msg)
	}
	c.sends = c.sends[:0]
}

// VoteToHalt implements pregel.SubgraphContext.
func (c *recordingSubgraphContext) VoteToHalt() {
	c.halted = true
	c.SubgraphContext.VoteToHalt()
}

// AddIterations implements pregel.SubgraphContext.
func (c *recordingSubgraphContext) AddIterations(n int64) {
	c.iterations += n
	c.SubgraphContext.AddIterations(n)
}

package graft

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// The sequential reference interpreter: the engine's tests check it
// against this oracle rather than against a second engine path, so a
// bug shared by two strategies cannot pass unnoticed. It runs on one
// goroutine over plain maps, uses only the exported pregel API, and
// does nothing clever: no lanes, no partitions, no sender-side
// combining. Vertices compute in ascending ID order, so every inbox
// holds its messages in send order, and a combiner is a plain fold
// over that inbox.

// oracleStep is one Compute call in canonical form: values and edges
// as encoded bytes, messages as sorted multisets.
type oracleStep struct {
	Before, After string
	Edges         []string
	Halted        bool
	In, Out       []string
}

// oracleRun is everything the oracle observed over one job.
type oracleRun struct {
	// Steps maps superstep → vertex → its Compute call.
	Steps map[int]map[pregel.VertexID]oracleStep
	// Meta maps superstep → vertex count, edge count and aggregator
	// broadcast as the vertices saw them.
	Meta          map[int]string
	Supersteps    int
	TotalMessages int64
	// Graph is the final graph: removed vertices stay reachable, as in
	// the engine.
	Graph *pregel.Graph
}

func enc(v pregel.Value) string { return string(pregel.MarshalValue(v)) }

func sorted(keys []string) []string {
	sort.Strings(keys)
	return keys
}

func edgeKeys(es []pregel.Edge) []string {
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = fmt.Sprintf("%d|%x", e.Target, enc(e.Value))
	}
	return keys
}

func metaKey(nv, ne int64, aggs map[string]pregel.Value) string {
	names := make([]string, 0, len(aggs))
	for name := range aggs {
		names = append(names, name)
	}
	sort.Strings(names)
	s := fmt.Sprintf("v=%d e=%d", nv, ne)
	for _, name := range names {
		s += fmt.Sprintf(" %s=%x", name, enc(aggs[name]))
	}
	return s
}

// oracle is the interpreter's state between supersteps.
type oracle struct {
	cfg       pregel.Config
	aggs      map[string]algorithms.AggregatorSpec
	g         *pregel.Graph
	live      map[pregel.VertexID]*pregel.Vertex
	broadcast map[string]pregel.Value
}

// oracleCtx implements pregel.Context and pregel.MasterContext for
// one superstep.
type oracleCtx struct {
	o         *oracle
	superstep int
	nv, ne    int64
	next      map[pregel.VertexID][]pregel.Value
	partial   map[string]pregel.Value
	removals  []pregel.VertexID
	additions map[pregel.VertexID]pregel.Value
	out       []string // the computing vertex's sends
	sent      int64
	halted    bool
}

func (c *oracleCtx) Superstep() int                         { return c.superstep }
func (c *oracleCtx) TotalNumVertices() int64                { return c.nv }
func (c *oracleCtx) TotalNumEdges() int64                   { return c.ne }
func (c *oracleCtx) WorkerID() int                          { return 0 }
func (c *oracleCtx) GetAggregated(name string) pregel.Value { return c.o.broadcast[name] }
func (c *oracleCtx) SetAggregated(name string, v pregel.Value) {
	c.o.broadcast[name] = v
}
func (c *oracleCtx) HaltComputation() { c.halted = true }
func (c *oracleCtx) AggregatedNames() []string {
	names := make([]string, 0, len(c.o.aggs))
	for name := range c.o.aggs {
		names = append(names, name)
	}
	return sorted(names)
}

func (c *oracleCtx) Aggregate(name string, v pregel.Value) {
	agg := c.o.aggs[name].Agg
	acc, ok := c.partial[name]
	if !ok {
		acc = agg.CreateInitial()
	}
	c.partial[name] = agg.Aggregate(acc, v)
}

func (c *oracleCtx) SendMessage(to pregel.VertexID, msg pregel.Value) {
	c.out = append(c.out, fmt.Sprintf("%d|%x", to, enc(msg)))
	c.next[to] = append(c.next[to], msg)
	c.sent++
}

func (c *oracleCtx) SendMessageToAllEdges(v *pregel.Vertex, msg pregel.Value) {
	for _, e := range v.Edges() {
		c.SendMessage(e.Target, msg.Clone())
	}
}

func (c *oracleCtx) RemoveVertexRequest(id pregel.VertexID) { c.removals = append(c.removals, id) }

func (c *oracleCtx) AddVertexRequest(id pregel.VertexID, v pregel.Value) {
	if _, dup := c.additions[id]; !dup {
		c.additions[id] = v
	}
}

// addVertex puts a fresh, active vertex into the graph and the live
// set. A halted vertex is woken the same way: the exported API has no
// un-halt, so it is rebuilt with its value and edges.
func (o *oracle) addVertex(id pregel.VertexID, val pregel.Value, edges []pregel.Edge) *pregel.Vertex {
	v := o.g.AddVertex(id, val)
	for _, e := range edges {
		v.AddEdge(e)
	}
	o.live[id] = v
	return v
}

func (o *oracle) defaultValue() pregel.Value {
	if o.cfg.DefaultVertexValue == nil {
		return nil
	}
	return o.cfg.DefaultVertexValue()
}

// runOracle interprets alg over a clone of g under the parts of cfg
// that define semantics: master, combiner, superstep bound and the
// missing-vertex resolver. Like Algorithm.Configure, settings in cfg
// win over the algorithm's own.
func runOracle(t *testing.T, g *pregel.Graph, alg *algorithms.Algorithm, cfg pregel.Config) *oracleRun {
	t.Helper()
	if cfg.Master == nil {
		cfg.Master = alg.Master
	}
	if cfg.Combiner == nil {
		cfg.Combiner = alg.Combiner
	}
	if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = alg.MaxSupersteps
	}
	o := &oracle{cfg: cfg, aggs: map[string]algorithms.AggregatorSpec{}, g: g.Clone(),
		live: map[pregel.VertexID]*pregel.Vertex{}, broadcast: map[string]pregel.Value{}}
	for _, spec := range alg.Aggregators {
		o.aggs[spec.Name] = spec
		o.broadcast[spec.Name] = spec.Agg.CreateInitial()
	}
	for _, id := range o.g.VertexIDs() {
		o.live[id] = o.g.Vertex(id)
	}
	run := &oracleRun{Steps: map[int]map[pregel.VertexID]oracleStep{}, Meta: map[int]string{}, Graph: o.g}
	inbox := map[pregel.VertexID][]pregel.Value{}
	for step := 0; cfg.MaxSupersteps == 0 || step < cfg.MaxSupersteps; step++ {
		run.Supersteps = step
		ctx := &oracleCtx{o: o, superstep: step, next: map[pregel.VertexID][]pregel.Value{},
			partial: map[string]pregel.Value{}, additions: map[pregel.VertexID]pregel.Value{}}
		ids := make([]pregel.VertexID, 0, len(o.live))
		for id, v := range o.live {
			ids = append(ids, id)
			ctx.nv++
			ctx.ne += int64(v.NumEdges())
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if cfg.Master != nil {
			if err := cfg.Master.Compute(ctx); err != nil {
				t.Fatalf("oracle: master at superstep %d: %v", step, err)
			}
			if ctx.halted {
				return run
			}
		}
		run.Meta[step] = metaKey(ctx.nv, ctx.ne, o.broadcast)
		steps := map[pregel.VertexID]oracleStep{}
		var active int64
		for _, id := range ids {
			v, msgs := o.live[id], inbox[id]
			if v.Halted() {
				if len(msgs) == 0 {
					continue
				}
				v = o.addVertex(id, v.Value(), v.Edges())
			}
			rec := oracleStep{Before: enc(v.Value()), Edges: edgeKeys(v.Edges())}
			for _, m := range msgs {
				rec.In = append(rec.In, enc(m))
			}
			ctx.out = nil
			if err := alg.Compute.Compute(ctx, v, msgs); err != nil {
				t.Fatalf("oracle: vertex %d at superstep %d: %v", id, step, err)
			}
			rec.After, rec.Halted = enc(v.Value()), v.Halted()
			rec.In, rec.Out = sorted(rec.In), sorted(ctx.out)
			steps[id] = rec
			if !v.Halted() {
				active++
			}
		}
		run.Steps[step] = steps

		// Barrier: removals, then additions, then aggregators, then the
		// inboxes of the next superstep.
		for _, id := range ctx.removals {
			delete(o.live, id)
		}
		added := make([]pregel.VertexID, 0, len(ctx.additions))
		for id := range ctx.additions {
			added = append(added, id)
		}
		sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
		for _, id := range added {
			if _, ok := o.live[id]; !ok {
				val := ctx.additions[id]
				if val == nil {
					val = o.defaultValue()
				}
				o.addVertex(id, val, nil)
			}
		}
		for name, spec := range o.aggs {
			acc := spec.Agg.CreateInitial()
			if spec.Persistent {
				acc = o.broadcast[name]
			}
			if p, ok := ctx.partial[name]; ok {
				acc = spec.Agg.Aggregate(acc, p)
			}
			o.broadcast[name] = acc
		}
		inbox = map[pregel.VertexID][]pregel.Value{}
		for id, msgs := range ctx.next {
			if _, ok := o.live[id]; !ok {
				if !cfg.CreateMissingVertices {
					continue
				}
				o.addVertex(id, o.defaultValue(), nil)
			}
			if cfg.Combiner != nil {
				acc := msgs[0]
				for _, m := range msgs[1:] {
					acc = cfg.Combiner.Combine(id, acc, m)
				}
				msgs = []pregel.Value{acc}
			}
			inbox[id] = msgs
		}
		run.TotalMessages += ctx.sent
		run.Supersteps = step + 1
		// Only vertices that computed this superstep count as active,
		// as in the engine: a vertex added at this barrier does not by
		// itself keep the job running.
		if active == 0 && len(inbox) == 0 {
			break
		}
	}
	return run
}

// stepOf puts one engine capture into the oracle's canonical form.
func stepOf(c *trace.VertexCapture) oracleStep {
	rec := oracleStep{Before: enc(c.ValueBefore), After: enc(c.ValueAfter), Edges: edgeKeys(c.Edges), Halted: c.HaltedAfter}
	for _, m := range c.Incoming {
		rec.In = append(rec.In, enc(m))
	}
	for _, m := range c.Outgoing {
		rec.Out = append(rec.Out, fmt.Sprintf("%d|%x", m.To, enc(m.Value)))
	}
	rec.In, rec.Out = sorted(rec.In), sorted(rec.Out)
	return rec
}

// requireOracleMatch checks a fully captured engine trace against the
// oracle: the same supersteps with the same global data, the same
// vertices computing in each, and for each one the same value before
// and after, edges, halt state and message multisets. The job's final
// graph must hold the oracle's values, and the stats must agree on the
// superstep count, and on the message count unless the run recovered
// from a crash (re-executed supersteps send again).
func requireOracleMatch(t *testing.T, label string, g *Graph, view trace.View, stats *Stats, want *oracleRun) {
	t.Helper()
	if got, ref := g.ValuesDigest(), want.Graph.ValuesDigest(); got != ref {
		t.Errorf("%s: final values digest %s, oracle %s", label, got, ref)
	}
	if stats.Supersteps != want.Supersteps {
		t.Errorf("%s: Supersteps = %d, oracle %d", label, stats.Supersteps, want.Supersteps)
	}
	if stats.Recoveries == 0 && stats.TotalMessages != want.TotalMessages {
		t.Errorf("%s: TotalMessages = %d, oracle %d", label, stats.TotalMessages, want.TotalMessages)
	}
	var steps []int
	for s := range want.Meta {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	if got := view.Supersteps(); !reflect.DeepEqual(got, steps) {
		t.Fatalf("%s: traced supersteps %v, oracle %v", label, got, steps)
	}
	for _, s := range steps {
		m := view.MetaAt(s)
		if got := metaKey(m.NumVertices, m.NumEdges, m.Aggregated); got != want.Meta[s] {
			t.Fatalf("%s: superstep %d global data %q, oracle %q", label, s, got, want.Meta[s])
		}
		caps := view.CapturesAt(s)
		if len(caps) != len(want.Steps[s]) {
			t.Fatalf("%s: superstep %d computed %d vertices, oracle %d", label, s, len(caps), len(want.Steps[s]))
		}
		for _, c := range caps {
			ref, ok := want.Steps[s][c.ID]
			if !ok {
				t.Fatalf("%s: superstep %d: vertex %d computed, oracle did not compute it", label, s, c.ID)
			}
			if got := stepOf(c); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: superstep %d vertex %d:\nengine %#v\noracle %#v", label, s, c.ID, got, ref)
			}
		}
	}
}

// churnAlgorithm exercises everything the oracle models beyond plain
// message passing: a master that writes an aggregator and halts the
// job, regular and persistent aggregators, vertex removal and addition
// requests (with and without a value), messages to vertices that do
// not exist, edge removal inside Compute, and halted vertices woken by
// messages.
func churnAlgorithm() *algorithms.Algorithm {
	comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		s, id := ctx.Superstep(), int64(v.ID())
		val := ctx.GetAggregated("phase").(*pregel.LongValue).Get()
		if l, ok := v.Value().(*pregel.LongValue); ok {
			val += l.Get()
		}
		for _, m := range msgs {
			val += m.(*pregel.LongValue).Get()
		}
		v.SetValue(pregel.NewLong(val))
		ctx.Aggregate("computed", pregel.NewLong(1))
		ctx.Aggregate("total", pregel.NewLong(val%7))
		switch {
		case s == 0 && id%10 == 0:
			ctx.SendMessage(v.ID()+1000, pregel.NewLong(id))
		case s == 1 && id%7 == 3:
			ctx.RemoveVertexRequest(v.ID())
		case s == 1 && id%5 == 0:
			ctx.AddVertexRequest(v.ID()+2000, pregel.NewLong(id))
		case s == 1 && id%11 == 0:
			ctx.AddVertexRequest(v.ID()+3000, nil)
		case s == 2 && id%4 == 0 && v.NumEdges() > 0:
			v.RemoveEdges(v.Edges()[0].Target)
		}
		if s < 4 {
			ctx.SendMessageToAllEdges(v, pregel.NewLong(val%13))
		}
		if id%3 == 0 || s >= 3 {
			v.VoteToHalt()
		}
		return nil
	})
	master := pregel.MasterComputeFunc(func(ctx pregel.MasterContext) error {
		if ctx.Superstep() == 4 {
			ctx.HaltComputation()
		}
		ctx.SetAggregated("phase", pregel.NewLong(int64(ctx.Superstep())*10))
		return nil
	})
	return &algorithms.Algorithm{
		Name:     "churn",
		Compute:  comp,
		Master:   master,
		Combiner: pregel.SumLongCombiner,
		Aggregators: []algorithms.AggregatorSpec{
			{Name: "phase", Agg: pregel.LongOverwriteAggregator{}},
			{Name: "computed", Agg: pregel.LongSumAggregator{}},
			{Name: "total", Agg: pregel.LongSumAggregator{}, Persistent: true},
		},
	}
}

// TestOracleMutationsMasterAggregators checks the engine against the
// oracle on churnAlgorithm, under combiner on/off, the missing-vertex
// resolver on/off, placement, and a crash recovered either by
// checkpoint restart or by confined log replay.
func TestOracleMutationsMasterAggregators(t *testing.T) {
	for _, combine := range []bool{true, false} {
		for _, create := range []bool{true, false} {
			for _, p := range []PartitionerMode{PartitionHash, PartitionLocality} {
				for _, crash := range []string{"none", "checkpoint", "log"} {
					label := fmt.Sprintf("combiner=%v/create=%v/placement=%v/crash=%s", combine, create, p, crash)
					t.Run(label, func(t *testing.T) {
						cfg := EngineConfig{NumWorkers: 4, Partitioner: p, CreateMissingVertices: create,
							DefaultVertexValue: func() pregel.Value { return pregel.NewLong(-1) }}
						crashAt := -1
						switch crash {
						case "checkpoint":
							crashAt = 2
						case "log":
							cfg.CheckpointEvery, cfg.CheckpointFS = 2, NewMemFS()
							cfg.Recovery, cfg.MsgLogFS = RecoveryLog, NewMemFS()
							cfg.PartitionFailureAt = FailPartitionAt(2, 1)
						}
						stats := oracleCase(t, label, graphgen.SocialGraph(200, 4, 5), churnAlgorithm(), !combine, cfg, crashAt)
						if crash == "log" && (stats.Recoveries != 1 || stats.RecoveryEvents[0].Mode != "log") {
							t.Fatalf("want one confined recovery, got %+v", stats.RecoveryEvents)
						}
						if stats.Reason != pregel.ReasonMasterHalted || (!create && stats.MessagesDropped == 0) {
							t.Fatalf("churn did not exercise the master halt or the resolver: %+v", stats)
						}
					})
				}
			}
		}
	}
}

// TestOracleAllAlgorithms runs every packaged algorithm through the
// engine with every vertex captured and checks the trace against the
// oracle. PageRank sums floats, whose result depends on addition order,
// so it runs on one worker, where the engine delivers in send order.
func TestOracleAllAlgorithms(t *testing.T) {
	for _, name := range algorithms.Names() {
		t.Run(name, func(t *testing.T) {
			alg, err := algorithms.ByName(name, 7, 6)
			if err != nil {
				t.Fatal(err)
			}
			workers := 4
			if name == "pagerank" {
				workers = 1
			}
			oracleCase(t, name, graphgen.SocialGraph(160, 4, 3), alg, false, EngineConfig{NumWorkers: workers}, -1)
		})
	}
}

// minLabelCC is HCC connected components written against the bare
// pregel API: propagate the minimum vertex ID seen, halting every
// superstep.
var minLabelCC = pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	min := int64(v.ID())
	if ctx.Superstep() > 0 {
		min = v.Value().(*pregel.LongValue).Get()
	}
	changed := ctx.Superstep() == 0
	for _, m := range msgs {
		if x := m.(*pregel.LongValue).Get(); x < min {
			min, changed = x, true
		}
	}
	if changed {
		v.SetValue(pregel.NewLong(min))
		ctx.SendMessageToAllEdges(v, pregel.NewLong(min))
	}
	v.VoteToHalt()
	return nil
})

// TestLanePlaneMatchesOracle runs the bare engine, with no debugger
// attached, on a random undirected graph and checks its labels,
// message count and superstep count against the oracle, with and
// without a combiner.
func TestLanePlaneMatchesOracle(t *testing.T) {
	build := func() *pregel.Graph {
		rng := rand.New(rand.NewSource(7))
		g := pregel.NewGraph()
		const n = 300
		for i := 0; i < n; i++ {
			g.AddVertex(pregel.VertexID(i), pregel.NewLong(int64(i)))
		}
		for i := 0; i < n; i++ {
			for _, j := range rng.Perm(n)[:3] {
				if i != j {
					g.AddEdge(pregel.VertexID(i), pregel.VertexID(j), nil)
					g.AddEdge(pregel.VertexID(j), pregel.VertexID(i), nil)
				}
			}
		}
		return g
	}
	for _, tc := range []struct {
		name     string
		combiner pregel.Combiner
	}{
		{"combiner", pregel.MinLongCombiner},
		{"plain", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alg := &algorithms.Algorithm{Compute: minLabelCC, Combiner: tc.combiner}
			want := runOracle(t, build(), alg, pregel.Config{})
			g := build()
			stats, err := alg.Run(g, pregel.Config{NumWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got, ref := g.ValuesDigest(), want.Graph.ValuesDigest(); got != ref {
				t.Errorf("labels digest %s, oracle %s", got, ref)
			}
			if stats.TotalMessages != want.TotalMessages {
				t.Errorf("TotalMessages = %d, oracle %d", stats.TotalMessages, want.TotalMessages)
			}
			if stats.Supersteps != want.Supersteps {
				t.Errorf("Supersteps = %d, oracle %d", stats.Supersteps, want.Supersteps)
			}
		})
	}
}

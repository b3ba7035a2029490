package pregel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"graft/internal/dfs"
)

// TestLaneDeterministicInboxOrder checks the lane plane's ordering
// guarantee: inboxes are merged in sender-worker order, then flush
// order, so without a combiner a vertex sees the exact same message
// sequence on every run.
func TestLaneDeterministicInboxOrder(t *testing.T) {
	run := func() map[VertexID][]int64 {
		g := NewGraph()
		const senders = 40
		g.AddVertex(0, NewLong(0))
		for i := 1; i <= senders; i++ {
			g.AddVertex(VertexID(i), NewLong(0))
		}
		var mu sync.Mutex
		order := map[VertexID][]int64{}
		comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
			if ctx.Superstep() == 0 && v.ID() != 0 {
				for k := 0; k < 5; k++ {
					ctx.SendMessage(0, NewLong(int64(v.ID())*100+int64(k)))
				}
			}
			if ctx.Superstep() == 1 && v.ID() == 0 {
				var seq []int64
				for _, m := range msgs {
					seq = append(seq, m.(*LongValue).Get())
				}
				mu.Lock()
				order[v.ID()] = seq
				mu.Unlock()
			}
			v.VoteToHalt()
			return nil
		})
		if _, err := NewJob(g, comp, Config{NumWorkers: 8}).Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		if fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("run %d: inbox order diverged:\n%v\nvs\n%v", i, again, first)
		}
	}
}

// TestSenderSideCombining checks that with a combiner installed the
// lane plane merges at the sender: a worker fanning many messages into
// one destination should flush far fewer entries than messages, and
// the combined result must still be exact.
func TestSenderSideCombining(t *testing.T) {
	const leaves = 500
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	for i := 1; i <= leaves; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() == 0 && v.ID() != 0 {
			// Three messages per leaf, all to the hub.
			for k := 0; k < 3; k++ {
				ctx.SendMessage(0, NewLong(1))
			}
		}
		if ctx.Superstep() == 1 && v.ID() == 0 {
			var sum int64
			for _, m := range msgs {
				sum += m.(*LongValue).Get()
			}
			if sum != 3*leaves {
				t.Errorf("combined sum = %d, want %d", sum, 3*leaves)
			}
		}
		v.VoteToHalt()
		return nil
	})
	stats, err := NewJob(g, comp, Config{NumWorkers: 4, Combiner: SumLongCombiner}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ss := stats.PerSuperstep[0]
	if ss.MessagesSent != 3*leaves {
		t.Errorf("sent = %d, want %d", ss.MessagesSent, 3*leaves)
	}
	// Every message beyond one per (worker, destination) pair must have
	// been merged away before delivery; the hub receives exactly one
	// value per sending worker at most (receiver merge collapses those
	// too, so received is 1).
	if ss.MessagesCombined != 3*leaves-1 {
		t.Errorf("combined = %d, want %d", ss.MessagesCombined, 3*leaves-1)
	}
	if got := stats.PerSuperstep[1].MessagesReceived; got != 1 {
		t.Errorf("received = %d, want 1", got)
	}
}

// TestDuplicateEdgesMutatingCombiner is the regression test for a
// sender-side combining aliasing bug: SendMessageToAllEdges used to
// hand the original Value to the first edge and clone it for the rest,
// but with duplicate parallel edges to one target the combiner mutates
// the stored original in place between sends, so later clones copied
// the partially-combined value and the fold doubled instead of summed.
func TestDuplicateEdgesMutatingCombiner(t *testing.T) {
	const dup = 5
	t.Run("lanes", func(t *testing.T) {
		g := NewGraph()
		g.AddVertex(0, NewDouble(0))
		g.AddVertex(1, NewDouble(0))
		for i := 0; i < dup; i++ {
			g.AddEdge(1, 0, nil) // duplicate parallel edges
		}
		comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
			if ctx.Superstep() == 0 && v.ID() == 1 {
				ctx.SendMessageToAllEdges(v, NewDouble(0.25))
			}
			if ctx.Superstep() == 1 && v.ID() == 0 {
				var sum float64
				for _, m := range msgs {
					sum += m.(*DoubleValue).Get()
				}
				if sum != dup*0.25 {
					t.Errorf("delivered sum = %v, want %v", sum, dup*0.25)
				}
			}
			v.VoteToHalt()
			return nil
		})
		cfg := Config{NumWorkers: 2, Combiner: SumDoubleCombiner}
		if _, err := NewJob(g, comp, cfg).Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMsgFlushBatchConfigurable forces a tiny flush batch through the
// Config knob and checks nothing is lost.
func TestMsgFlushBatchConfigurable(t *testing.T) {
	for _, batch := range []int{1, 3} {
		t.Run(fmt.Sprintf("lanes-batch%d", batch), func(t *testing.T) {
			const fanout = 200
			g := NewGraph()
			g.AddVertex(0, NewLong(0))
			for i := 1; i <= fanout; i++ {
				g.AddVertex(VertexID(i), NewLong(0))
			}
			var delivered atomic.Int64
			comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
				if ctx.Superstep() == 0 && v.ID() == 0 {
					for i := 1; i <= fanout; i++ {
						ctx.SendMessage(VertexID(i), NewLong(int64(i)))
					}
				}
				if ctx.Superstep() == 1 && len(msgs) > 0 {
					if got := msgs[0].(*LongValue).Get(); got != int64(v.ID()) {
						t.Errorf("vertex %d got %d", v.ID(), got)
					}
					delivered.Add(int64(len(msgs)))
				}
				v.VoteToHalt()
				return nil
			})
			stats, err := NewJob(g, comp, Config{NumWorkers: 4, MsgFlushBatch: batch}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if delivered.Load() != fanout {
				t.Errorf("delivered %d of %d messages", delivered.Load(), fanout)
			}
			if stats.TotalMessages != fanout {
				t.Errorf("TotalMessages = %d", stats.TotalMessages)
			}
		})
	}
}

// TestMutableValueInboxIsolation is the regression test for the
// SendMessageToAllEdges fast path: mutable values must still be cloned
// per recipient, so one receiver mutating its message cannot corrupt
// another's inbox.
func TestMutableValueInboxIsolation(t *testing.T) {
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	g.AddVertex(1, NewLong(0))
	g.AddVertex(2, NewLong(0))
	g.AddEdge(0, 1, nil)
	g.AddEdge(0, 2, nil)
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() == 0 && v.ID() == 0 {
			ctx.SendMessageToAllEdges(v, NewLong(7))
		}
		if ctx.Superstep() == 1 && v.ID() != 0 {
			if len(msgs) != 1 {
				t.Errorf("vertex %d got %d messages, want 1", v.ID(), len(msgs))
			} else {
				if got := msgs[0].(*LongValue).Get(); got != 7 {
					t.Errorf("vertex %d read %d, want 7 (inbox not isolated?)", v.ID(), got)
				}
				// Scribble over the received value: with per-recipient
				// clones this must not be visible anywhere else.
				msgs[0].(*LongValue).Set(999)
			}
		}
		v.VoteToHalt()
		return nil
	})
	// One worker makes receiver order deterministic: vertex 1 mutates
	// before vertex 2 reads, so a shared object would be caught.
	if _, err := NewJob(g, comp, Config{NumWorkers: 1}).Run(); err != nil {
		t.Fatal(err)
	}
}

// TestImmutableValueFanout exercises the no-clone fast path (NilValue
// is immutable, no combiner installed) and the fallback when a
// combiner forces cloning anyway.
func TestImmutableValueFanout(t *testing.T) {
	run := func(combiner Combiner) {
		const spokes = 60
		g := NewGraph()
		g.AddVertex(0, NewLong(0))
		for i := 1; i <= spokes; i++ {
			g.AddVertex(VertexID(i), NewLong(0))
			g.AddEdge(0, VertexID(i), nil)
		}
		var arrived atomic.Int64
		comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
			if ctx.Superstep() == 0 && v.ID() == 0 {
				ctx.SendMessageToAllEdges(v, Nil())
			}
			if ctx.Superstep() == 1 {
				arrived.Add(int64(len(msgs)))
			}
			v.VoteToHalt()
			return nil
		})
		cfg := Config{NumWorkers: 4}
		if combiner != nil {
			cfg.Combiner = combiner
		}
		if _, err := NewJob(g, comp, cfg).Run(); err != nil {
			t.Fatal(err)
		}
		want := int64(spokes)
		if combiner != nil {
			// One combined Nil per destination vertex: still spokes inboxes.
			want = spokes
		}
		if arrived.Load() != want {
			t.Errorf("arrived = %d, want %d", arrived.Load(), want)
		}
	}
	run(nil)
	run(CombineFunc(func(to VertexID, a, b Value) Value { return a }))
}

// starGraph builds a hub-and-spokes graph whose hub fans out every
// superstep, concentrating message work on the hub's partition — the
// deterministic skew source the rebalancer tests use.
func starGraph(t testing.TB, spokes int) *Graph {
	t.Helper()
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	for i := 1; i <= spokes; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
		if err := g.AddEdge(0, VertexID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// pulseCompute keeps the hub broadcasting for a fixed number of
// supersteps; spokes count what arrives.
func pulseCompute(rounds int, got *atomic.Int64) ComputeFunc {
	return func(ctx Context, v *Vertex, msgs []Value) error {
		got.Add(int64(len(msgs)))
		if v.ID() == 0 && ctx.Superstep() < rounds {
			ctx.SendMessageToAllEdges(v, NewLong(int64(ctx.Superstep())))
			return nil
		}
		v.VoteToHalt()
		return nil
	}
}

func TestRebalancerMigratesHotVertices(t *testing.T) {
	const spokes, rounds = 400, 6
	g := starGraph(t, spokes)
	var got atomic.Int64
	stats, err := NewJob(g, pulseCompute(rounds, &got), Config{
		NumWorkers:    4,
		RebalanceSkew: 1.5,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != spokes*rounds {
		t.Errorf("delivered %d messages, want %d", got.Load(), spokes*rounds)
	}
	if stats.Rebalances == 0 || stats.VerticesMigrated == 0 {
		t.Fatalf("rebalancer never triggered: %+v", stats)
	}
	var events int
	for _, ss := range stats.PerSuperstep {
		for _, m := range ss.Migrations {
			events++
			if m.From == m.To {
				t.Errorf("superstep %d: migration from partition %d to itself", ss.Superstep, m.From)
			}
			if m.Vertices <= 0 || m.Skew < 1.5 {
				t.Errorf("superstep %d: implausible migration event %+v", ss.Superstep, m)
			}
		}
	}
	if events != stats.Rebalances {
		t.Errorf("events = %d, Stats.Rebalances = %d", events, stats.Rebalances)
	}
	// The partitions must stay consistent after migration: every vertex
	// reachable, no duplicates in iteration order.
	for _, id := range g.VertexIDs() {
		if g.Vertex(id) == nil {
			t.Fatalf("vertex %d lost after migration", id)
		}
	}
}

func TestRebalancerMaxMovesRespected(t *testing.T) {
	const spokes, rounds = 300, 4
	g := starGraph(t, spokes)
	var got atomic.Int64
	stats, err := NewJob(g, pulseCompute(rounds, &got), Config{
		NumWorkers:        4,
		RebalanceSkew:     1.5,
		RebalanceMaxMoves: 5,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range stats.PerSuperstep {
		for _, m := range ss.Migrations {
			if m.Vertices > 5 {
				t.Errorf("superstep %d migrated %d vertices, cap was 5", ss.Superstep, m.Vertices)
			}
		}
	}
	if got.Load() != spokes*rounds {
		t.Errorf("delivered %d messages, want %d", got.Load(), spokes*rounds)
	}
}

// TestRebalancerSurvivesRecovery crashes the job after migrations have
// happened and checks that recovery restores the reassignment table
// (checkpoint format v2), so post-recovery messages still route to the
// migrated vertices.
func TestRebalancerSurvivesRecovery(t *testing.T) {
	const spokes, rounds = 200, 8
	g := starGraph(t, spokes)
	var got atomic.Int64
	crashed := false
	stats, err := NewJob(g, pulseCompute(rounds, &got), Config{
		NumWorkers:      4,
		RebalanceSkew:   1.5,
		CheckpointEvery: 2,
		CheckpointFS:    dfs.NewMemFS(),
		FailureAt: func(superstep int) bool {
			if superstep == 5 && !crashed {
				crashed = true
				return true
			}
			return false
		},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", stats.Recoveries)
	}
	if stats.Rebalances == 0 {
		t.Fatal("rebalancer never triggered before the crash")
	}
	// Deliveries replayed after recovery are counted twice by the
	// observer; the invariant is "at least every logical message".
	if got.Load() < spokes*rounds {
		t.Errorf("delivered %d messages, want at least %d", got.Load(), spokes*rounds)
	}
	// The hub must have kept broadcasting correctly to the final round.
	last := stats.PerSuperstep[len(stats.PerSuperstep)-1]
	if last.Superstep != rounds {
		t.Errorf("final superstep = %d, want %d", last.Superstep, rounds)
	}
}

// TestRebalancerOffByDefault makes sure a zero config never migrates.
func TestRebalancerOffByDefault(t *testing.T) {
	const spokes, rounds = 200, 4
	g := starGraph(t, spokes)
	var got atomic.Int64
	stats, err := NewJob(g, pulseCompute(rounds, &got), Config{NumWorkers: 4}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rebalances != 0 || stats.VerticesMigrated != 0 {
		t.Errorf("unexpected migrations with rebalancer disabled: %+v", stats)
	}
}

package pregel

import (
	"sync"
	"testing"
)

// benchPlaneRoundTrip measures the full SendMessage → flush → merge →
// take round trip of one superstep's worth of messages through the
// lane plane, with concurrent senders like the real worker phase. Run
// with
//
//	go test ./internal/pregel -run '^$' -bench BenchmarkMessagePlane
func benchPlaneRoundTrip(b *testing.B, combiner Combiner) {
	const (
		workers  = 4
		nVerts   = 1024
		perWorkr = 16384
	)
	g := NewGraph()
	for i := 0; i < nVerts; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	noop := ComputeFunc(func(Context, *Vertex, []Value) error { return nil })
	job := NewJob(g, noop, Config{NumWorkers: workers, Combiner: combiner})
	en := newEngine(job)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := en.newWorkerCtx(w, nVerts, 0)
				for k := 0; k < perWorkr; k++ {
					// Skewed fan-in: a quarter of the traffic hits one hot
					// vertex, the rest spreads round-robin — the mix where
					// sender-side combining and lock-freedom both matter.
					to := VertexID((w*perWorkr + k*7) % nVerts)
					if k%4 == 0 {
						to = 0
					}
					ctx.SendMessage(to, NewLong(int64(k)))
				}
				ctx.flushAll()
			}(w)
		}
		wg.Wait()
		// Post-barrier phase exactly as the engine runs it: each shard's
		// owning worker merges its lane column and drains its inboxes in
		// its own goroutine.
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				en.next.mergeLane(w)
				for id := 0; id < nVerts; id++ {
					if en.partitionFor(VertexID(id)) == w {
						en.next.take(w, VertexID(id))
					}
				}
			}(w)
		}
		wg.Wait()
		en.next = en.newStore()
	}
}

func BenchmarkMessagePlane(b *testing.B) {
	for _, tc := range []struct {
		name     string
		combiner Combiner
	}{
		{"combiner", SumLongCombiner},
		{"plain", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchPlaneRoundTrip(b, tc.combiner)
		})
	}
}

// BenchmarkCheckpointEncode measures the message-store encode path the
// checkpoint writer runs per shard, which now reuses one scratch ID
// slice across shards instead of allocating and sorting a fresh one
// each time.
func BenchmarkCheckpointEncode(b *testing.B) {
	const (
		workers = 4
		nVerts  = 4096
	)
	g := NewGraph()
	for i := 0; i < nVerts; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	noop := ComputeFunc(func(Context, *Vertex, []Value) error { return nil })
	job := NewJob(g, noop, Config{NumWorkers: workers})
	en := newEngine(job)
	for id := 0; id < nVerts; id++ {
		sh := en.partitionFor(VertexID(id))
		en.cur.replayDeliver(sh, VertexID(id), NewLong(int64(id)))
		en.cur.replayDeliver(sh, VertexID(id), NewLong(int64(id)+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var scratch []VertexID
	for i := 0; i < b.N; i++ {
		e := NewEncoder()
		for s := 0; s < workers; s++ {
			scratch = en.cur.encode(s, e, scratch)
		}
	}
}

package graft

import (
	"fmt"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
)

// TestPartitionSkipDigestEquivalence is the acceptance check for the
// halted-partition fast path: skipping partitions with zero active
// vertices and no pending messages must change nothing observable, so
// the fully captured trace (values, halt states, message multisets)
// and the headline stats must match the sequential oracle, which
// visits every vertex every superstep. SSSP is the stressor: its
// frontier sweeps the graph in waves, so most supersteps leave whole
// partitions halted, which is exactly when the skip triggers.
func TestPartitionSkipDigestEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		alg   func() *algorithms.Algorithm
		build func() *Graph
	}{
		{
			"sssp",
			func() *algorithms.Algorithm { return algorithms.NewSSSP(0) },
			func() *Graph { return graphgen.WebGraph(240, 5, 11) },
		},
		{
			"cc",
			algorithms.NewConnectedComponents,
			func() *Graph { return graphgen.SocialGraph(240, 5, 3) },
		},
	}
	for _, tc := range cases {
		for _, crashAt := range []int{-1, 1} {
			label := fmt.Sprintf("%s/crash=%d", tc.name, crashAt)
			t.Run(label, func(t *testing.T) {
				oracleCase(t, label, tc.build(), tc.alg(), false, EngineConfig{NumWorkers: 4}, crashAt)
			})
		}
	}
}

// TestPartitionSkipWithMutationsAndRebalance layers the bookkeeping
// hazards on top: vertex additions via the missing-vertex resolver and
// skew-driven migrations both move active counts between partitions,
// and the trace must still match the oracle's.
func TestPartitionSkipWithMutationsAndRebalance(t *testing.T) {
	cfg := EngineConfig{NumWorkers: 4, RebalanceSkew: 1.3, RebalanceMaxMoves: 64, CreateMissingVertices: true}
	stats := oracleCase(t, "broom", broomGraph(300, 40), algorithms.NewConnectedComponents(), false, cfg, -1)
	if stats.Rebalances == 0 {
		t.Fatalf("rebalancer never triggered: %+v", stats)
	}
}

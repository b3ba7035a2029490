package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/graphgen"
	"graft/internal/harness"
	"graft/internal/pregel"
)

// Workload names. Later changes refer to them, so they never change
// meaning; README.md says why each exists.
const (
	wlGC      = "gc-bp-msg"
	wlMWM     = "mwm-soc-full"
	wlInspect = "inspect-mwm"
	wlPR      = "pr-web-recover"
)

var workloadNames = []string{wlGC, wlMWM, wlInspect, wlPR}

// sizes are the input sizes of one benchmark mode.
type sizes struct {
	gcVertices, mwmVertices, prVertices int
	// pairs is how many (superstep, vertex) pairs an inspect session
	// visits; each pair loads five pages.
	pairs int
	// setups is how many times set-up is repeated to report its
	// median; inspect-mwm's set-up, which includes writing the trace,
	// is repeated traceSetups times.
	setups, traceSetups int
}

// fullSizes are the measured sizes. shortSizes run every code path on
// tiny inputs, for the benchmark's own tests.
var (
	fullSizes  = sizes{gcVertices: 100_000, mwmVertices: 50_000, prVertices: 30_000, pairs: 12, setups: 11, traceSetups: 3}
	shortSizes = sizes{gcVertices: 2_000, mwmVertices: 2_000, prVertices: 2_000, pairs: 4, setups: 2, traceSetups: 2}
)

const (
	prIterations = 24
	// checkpointEvery matches the recovery experiment: the crash lands a
	// full interval after the last checkpoint.
	checkpointEvery  = 8
	mwmMaxSupersteps = 400
	// The graphs of mwm-soc-full and pr-web-recover have a fixed shape;
	// the workload seed renumbers their vertices (see renumber).
	mwmGraphSeed = 9
	prGraphSeed  = 12
)

// jobSpec is one debugged job: its input, program and DebugConfig.
type jobSpec struct {
	name string
	// build generates the input graph: only the program's generator,
	// which set-up times.
	build     func() *pregel.Graph
	algorithm func() *algorithms.Algorithm
	debug     core.DebugConfig
	// crash runs the job with checkpoints, outbox logging and one
	// seeded partition crash recovered by confined log replay.
	crash bool
	// perm, when set, is the seed's renumbering of the generated
	// graph's vertices (see renumber), applied after the timed
	// generation; inspect-mwm also draws its pages by it.
	perm []int
}

// debugConfig returns one of the paper's Table 3 configurations.
func debugConfig(name string, seed int64) core.DebugConfig {
	for _, c := range harness.StandardConfigs(seed) {
		if c.Name == name && c.Make != nil {
			return c.Make()
		}
	}
	panic("perfbench: unknown DebugConfig " + name)
}

// jobSpecFor returns the job a workload runs. inspect-mwm inspects the
// trace of the mwm-soc-full job at the same seed.
func jobSpecFor(workload string, seed int64, sz sizes) (*jobSpec, error) {
	switch workload {
	case wlGC:
		return &jobSpec{
			name:      wlGC,
			build:     func() *pregel.Graph { return graphgen.RegularBipartite(sz.gcVertices, 3) },
			algorithm: func() *algorithms.Algorithm { return algorithms.NewGraphColoring(seed) },
			debug:     debugConfig("DC-msg", seed),
		}, nil
	case wlMWM, wlInspect:
		perm := rand.New(rand.NewSource(seed)).Perm(sz.mwmVertices)
		return &jobSpec{
			name:      wlMWM,
			build:     func() *pregel.Graph { return graphgen.SocialGraph(sz.mwmVertices, 6, mwmGraphSeed) },
			algorithm: func() *algorithms.Algorithm { return algorithms.NewMaximumWeightMatching(mwmMaxSupersteps) },
			debug:     renumbered(debugConfig("DC-full", seed), perm),
			perm:      perm,
		}, nil
	case wlPR:
		perm := rand.New(rand.NewSource(seed)).Perm(sz.prVertices)
		return &jobSpec{
			name:      wlPR,
			build:     func() *pregel.Graph { return graphgen.WebGraph(sz.prVertices, 8, prGraphSeed) },
			algorithm: func() *algorithms.Algorithm { return algorithms.NewPageRank(prIterations, algorithms.DefaultDamping) },
			debug:     renumbered(debugConfig("DC-sp", seed), perm),
			crash:     true,
			perm:      perm,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// renumber returns g with vertex i renamed perm[i]; g's vertex IDs
// must be 0..len(perm)-1. Edge values are shared with g, which the
// caller discards.
//
// The social and web graph workloads draw one fixed graph and let the
// seed renumber it, and the DebugConfig's specified vertices with it
// (renumbered). The work of a job (supersteps, messages, captures,
// trace bytes) is then the same at every seed, while placement on
// workers, hash order and the crashed partition change. Generating a
// new graph per seed made DC-full capture 60k to 76k contexts and
// DC-sp's five hub vertices carry different degrees, so the spread
// across seeds measured the inputs, not the code.
func renumber(g *pregel.Graph, perm []int) *pregel.Graph {
	out := pregel.NewGraph()
	for _, id := range g.VertexIDs() {
		v := g.Vertex(id)
		nv := out.AddVertex(pregel.VertexID(perm[id]), v.Value())
		for _, e := range v.Edges() {
			nv.AddEdge(pregel.Edge{Target: pregel.VertexID(perm[e.Target]), Value: e.Value})
		}
	}
	out.SortAllEdges()
	return out
}

// renumbered maps a DebugConfig's specified vertices through perm.
func renumbered(dc core.DebugConfig, perm []int) core.DebugConfig {
	ids := make([]pregel.VertexID, len(dc.CaptureIDs))
	for i, id := range dc.CaptureIDs {
		ids[i] = pregel.VertexID(perm[id])
	}
	dc.CaptureIDs = ids
	return dc
}

// expectation is what a debugged job at one seed must produce: the
// exact capture count and the canonical trace digest.
type expectation struct {
	Captures    int64  `json:"captures"`
	TraceDigest string `json:"trace_digest"`
}

// expected.json records the expectations of the full-size jobs for a
// range of seeds, keyed "<job workload>/<seed>". A seed outside the
// table is checked for agreement across the runs of one invocation.
//
//go:embed expected.json
var expectedJSON []byte

func lookupExpectation(job string, seed int64) (*expectation, error) {
	var table map[string]expectation
	if err := json.Unmarshal(expectedJSON, &table); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	e, ok := table[job+"/"+strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	return &e, nil
}

// recordExpectations runs one debugged job of every job workload at
// each seed in lo-hi and prints the expected.json entries.
func recordExpectations(w io.Writer, seeds string) error {
	var lo, hi int64
	if _, err := fmt.Sscanf(seeds, "%d-%d", &lo, &hi); err != nil {
		return fmt.Errorf("-record wants lo-hi: %w", err)
	}
	sz := fullSizes
	sz.setups = 1
	table := map[string]expectation{}
	for seed := lo; seed <= hi; seed++ {
		for _, name := range []string{wlGC, wlMWM, wlPR} {
			spec, err := jobSpecFor(name, seed, sz)
			if err != nil {
				return err
			}
			t := &tally{}
			env, err := newJobEnv(spec, seed, sz, nil, t)
			if err != nil {
				return err
			}
			if r := env.run(true); !r.ok {
				return fmt.Errorf("%s seed %d:\n%s", name, seed, t)
			}
			table[name+"/"+strconv.FormatInt(seed, 10)] = *env.want
		}
	}
	out, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

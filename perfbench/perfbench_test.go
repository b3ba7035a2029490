package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// declared reads the metric lists of the repository's BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func shortOptions(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: 3, seconds: 0.01, trace: traced,
		sizes: shortSizes, root: "..", spans: t.TempDir()}
}

// TestShortWorkloads runs every workload at tiny size, untraced and
// traced, and checks that each reports exactly the metrics
// BENCHMARK.json declares, with their units, and that every check
// passed.
func TestShortWorkloads(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := run(shortOptions(t, w, traced), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: %s in %s, declared %s", w, traced, name, m.Unit, unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, name, m.Value)
				}
			}
		}
	}
}

// TestWrongExpectationFails proves the capture-count and trace-digest
// checks bite: a deliberately wrong expectation is reported as a
// failed check, never passed or retried away.
func TestWrongExpectationFails(t *testing.T) {
	spec, err := jobSpecFor(wlMWM, 3, shortSizes)
	if err != nil {
		t.Fatal(err)
	}
	env, err := newJobEnv(spec, 3, shortSizes, nil, &tally{})
	if err != nil {
		t.Fatal(err)
	}
	if r := env.run(true); !r.ok || env.want == nil {
		t.Fatalf("learning the expectation failed:\n%s", env.t)
	}
	right := *env.want
	wrongCount, wrongDigest := right, right
	wrongCount.Captures++
	wrongDigest.TraceDigest = "0000"
	for _, w := range []string{wlMWM, wlInspect} {
		for name, exp := range map[string]expectation{"right": right, "captures": wrongCount, "digest": wrongDigest} {
			o := shortOptions(t, w, false)
			o.expect = &exp
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s with the %s expectation: %v", w, name, err)
			}
			if bad := name != "right"; res.Correct == bad || (res.Failed > 0) != bad {
				t.Errorf("%s with the %s expectation: correct=%v failed=%d", w, name, res.Correct, res.Failed)
			}
		}
	}
}

// TestWrappersForwardOptionalInterfaces checks that the traced run's
// wrappers expose exactly the optional interfaces the engine and the
// trace layer type-assert, so the traced run takes the same paths.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	r := newRecorder(1)
	g := pregel.NewGraph()
	g.AddVertex(1, nil)
	session, err := core.Attach(trace.NewStore(dfs.NewMemFS(), "t"), core.Options{JobID: "j", NumWorkers: 1}, g, core.DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l := r.wrapListener(session)
	if _, ok := l.(pregel.BarrierFlusher); !ok {
		t.Error("listener wrapper hides BarrierFlusher")
	}
	if _, ok := l.(pregel.CaptureQueueReporter); !ok {
		t.Error("listener wrapper hides CaptureQueueReporter")
	}
	if _, ok := r.wrapListener(nil).(pregel.BarrierFlusher); ok {
		t.Error("listener wrapper adds BarrierFlusher")
	}

	user := pregel.ComputeFunc(func(pregel.Context, *pregel.Vertex, []pregel.Value) error { return nil })
	if _, ok := r.wrapCompute(session.Instrument(user), lInstrumented, lSendEngine).(pregel.CaptureTimeReporter); !ok {
		t.Error("computation wrapper hides CaptureTimeReporter")
	}
	if _, ok := r.wrapCompute(user, lUser, lSendEngine).(pregel.CaptureTimeReporter); ok {
		t.Error("computation wrapper adds CaptureTimeReporter")
	}

	mem := dfs.NewMemFS()
	fallback := faults.NewFallbackFS(mem, dfs.NewMemFS())
	for _, c := range []struct {
		name             string
		fs               dfs.FileSystem
		faults, degraded bool
	}{
		{"cluster", newCluster(), false, false},
		{"fault", faults.NewFaultFS(mem, faults.Plan{}), true, false},
		{"fallback", fallback, true, true},
	} {
		w := r.wrapFS(c.fs)
		if _, ok := w.(pregel.FaultStatsProvider); ok != c.faults {
			t.Errorf("%s: wrapper FaultStats = %v, want %v", c.name, ok, c.faults)
		}
		if _, ok := w.(degradedPaths); ok != c.degraded {
			t.Errorf("%s: wrapper DegradedPaths = %v, want %v", c.name, ok, c.degraded)
		}
	}
}

// Command perfbench is Graft's end-to-end benchmark. It runs one named
// workload through Graft's public entry points for a fixed time,
// checks every output, and prints the workload's end-to-end metrics,
// or with -trace 1 its per-layer metrics from a span-recorded run.
// The last line of standard output is the result as one JSON object;
// the lines before it are a human-readable report and the run's
// metadata. README.md explains the workloads and metrics.
//
// Build and run it from the root of a checkout with
//
//	bash perfbench/run.sh --workload gc-bp-msg --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every workload reports with -trace 0.
// Each is defined on every workload; README.md gives the per-workload
// meaning (a job for the job workloads, a page for inspect-mwm).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"baseline_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"heap_peak_mb", "MB"},
	{"trace_mb", "MB"},
}

// perLayer are the metrics of the traced run, named by module. A layer
// idle on a workload reports 0 there.
var perLayer = []metricDef{
	{"graphgen.build_s", "s"},
	{"pregel.load_s", "s"},
	{"pregel.master_s", "s"},
	{"pregel.compute_s", "s"},
	{"pregel.compute_calls", "count"},
	{"pregel.send_s", "s"},
	{"pregel.messages", "count"},
	{"pregel.messages_combined", "count"},
	{"pregel.superstep_p50_ms", "ms"},
	{"pregel.superstep_max_ms", "ms"},
	{"pregel.barrier_s", "s"},
	{"pregel.straggler_wait_s", "s"},
	{"pregel.checkpoint_s", "s"},
	{"pregel.checkpoint_mb", "MB"},
	{"pregel.msglog_s", "s"},
	{"pregel.msglog_mb", "MB"},
	{"pregel.recovery_s", "s"},
	{"pregel.partitions_recomputed", "count"},
	{"pregel.messages_replayed", "count"},
	{"core.attach_s", "s"},
	{"core.instrument_s", "s"},
	{"core.captures", "count"},
	{"core.capture_ratio", "ratio"},
	{"core.overhead_x", "x"},
	{"trace.flush_s", "s"},
	{"trace.seal_s", "s"},
	{"trace.queue_peak", "count"},
	{"trace.dropped", "count"},
	{"trace.open_ms", "ms"},
	{"trace.lookup_p50_us", "us"},
	{"trace.lookup_p90_us", "us"},
	{"trace.segment_reads", "count"},
	{"dfs.write_s", "s"},
	{"dfs.write_mb", "MB"},
	{"dfs.files", "count"},
	{"dfs.read_s", "s"},
	{"dfs.read_mb", "MB"},
	{"dfs.replica_mb", "MB"},
	{"repro.gen_ms", "ms"},
	{"gui.render_ms", "ms"},
	{"gui.page_p90_ms", "ms"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"bench.tracing_overhead_x", "x"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	// root is the checkout whose sources are hashed into the metadata.
	root string
	// spans is the directory the traced run writes its spans to; empty
	// writes none.
	spans string
	// expect, when set, replaces the recorded expectation of the
	// debugged job (the benchmark's tests use it to prove checks bite).
	expect *expectation
}

// expectation returns what the debugged job of workload job must
// produce at this seed: the override, the recorded entry for a
// full-size run, or nil to learn it from the first debugged job.
func (o options) expectation(job string) (*expectation, error) {
	if o.expect != nil {
		e := *o.expect
		return &e, nil
	}
	if o.sizes != fullSizes {
		return nil, nil
	}
	return lookupExpectation(job, o.seed)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	var record string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the span-recorded run and reports per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root, hashed into the run metadata")
	flag.StringVar(&o.spans, "spans", "", "directory to write the traced run's spans to")
	flag.StringVar(&record, "record", "", "print the expectations of the job workloads for seeds `lo-hi` and exit")
	flag.Parse()
	o.trace = traceFlag == 1
	o.sizes = fullSizes
	if record != "" {
		if err := recordExpectations(os.Stdout, record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures one workload, writes the report to w and returns the
// result the last line carries.
func run(o options, w io.Writer) (*result, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	var rep *report
	var err error
	switch o.workload {
	case wlInspect:
		rep, err = benchInspect(o)
	case wlGC, wlMWM, wlPR:
		rep, err = benchJobs(o)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	defs, values := endToEnd, rep.e2e
	if o.trace {
		defs, values = perLayer, rep.layers
	}
	for _, d := range defs {
		v := values[d.name]
		if !rep.t.check(!math.IsNaN(v) && !math.IsInf(v, 0), "%s is %v", d.name, v) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct, res.Attempted, res.Failed = rep.t.failed == 0, rep.t.attempted, rep.t.failed

	meta := runMetadata(o)
	for k, v := range rep.meta {
		meta[k] = v
	}
	if o.trace && o.spans != "" {
		path, err := writeSpans(o, rep.spans)
		if err != nil {
			return nil, err
		}
		meta["spans_file"] = path
	}
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v\n", o.workload, o.seed, o.trace)
	for _, l := range rep.lines {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", l.name, l.value, l.unit)
	}
	fmt.Fprintf(w, "  %-28s %14.4f %s\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	if o.trace {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, rep.layers[d.name], d.unit)
		}
	}
	if rep.t.failed > 0 {
		fmt.Fprintf(w, "failed checks:\n%s\n", rep.t)
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "meta %s\n", mj)
	return res, nil
}

// runMetadata records what a later comparison needs to refuse runs
// whose code, toolchain, machine or inputs differ.
func runMetadata(o options) map[string]any {
	m := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"short":      o.sizes != fullSizes,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    runtime.NumCPU(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["commit"] = s.Value
			case "vcs.modified":
				m["commit_modified"] = s.Value == "true"
			}
		}
	}
	if sum, err := sourceDigest(o.root); err == nil {
		m["source_sha256"] = sum
	} else {
		m["source_sha256"] = "unavailable: " + err.Error()
	}
	return m
}

// sourceDigest hashes the Go sources and go.mod files of the checkout,
// standing in for the commit when the checkout is not a repository.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeSpans writes the traced run's spans as one JSON file.
func writeSpans(o options, spans any) (string, error) {
	if err := os.MkdirAll(o.spans, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	data, err := json.Marshal(map[string]any{"workload": o.workload, "seed": o.seed, "spans": spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

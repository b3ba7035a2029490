package trace

import (
	"errors"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

func sampleVertexCapture() *VertexCapture {
	return &VertexCapture{
		Superstep:   41,
		Worker:      2,
		ID:          672,
		Reasons:     ReasonByID | ReasonMessageConstraint,
		ValueBefore: pregel.NewText("TENTATIVELY_IN_SET"),
		ValueAfter:  pregel.NewText("IN_SET"),
		Edges: []pregel.Edge{
			{Target: 671},
			{Target: 673, Value: pregel.NewDouble(1.5)},
		},
		EdgesPreCompute: true,
		Incoming:        []pregel.Value{pregel.NewLong(671), pregel.NewLong(673)},
		Outgoing: []OutMsg{
			{To: 671, Value: pregel.NewShort(-3)},
		},
		HaltedAfter: true,
		Violations: []Violation{
			{Kind: MessageViolation, SrcID: 672, DstID: 671, Value: pregel.NewShort(-3)},
		},
		Exception: &ExceptionInfo{Message: "boom", Stack: "stack trace here"},
	}
}

func sampleMasterCapture() *MasterCapture {
	return &MasterCapture{
		Superstep:   41,
		NumVertices: 1_000_000_000,
		NumEdges:    3_000_000_000,
		AggregatedBefore: map[string]pregel.Value{
			"phase": pregel.NewText("SELECTION"),
		},
		AggregatedAfter: map[string]pregel.Value{
			"phase": pregel.NewText("CONFLICT-RESOLUTION"),
		},
		Sets:   []AggSet{{Name: "phase", Value: pregel.NewText("CONFLICT-RESOLUTION")}},
		Halted: false,
	}
}

func sampleMeta() *SuperstepMeta {
	return &SuperstepMeta{
		Superstep:   41,
		NumVertices: 10,
		NumEdges:    20,
		Aggregated: map[string]pregel.Value{
			"phase": pregel.NewText("CONFLICT-RESOLUTION"),
			"count": pregel.NewLong(7),
		},
	}
}

// writeRecords writes one job through a Sink — vertex and subgraph
// captures on their worker's lane, metas and master captures on the
// master lane — and finishes it with res.
func writeRecords(t testing.TB, store *Store, meta JobMeta, res JobResult, recs ...any) {
	t.Helper()
	sink, err := store.NewSink(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		switch r := rec.(type) {
		case *VertexCapture:
			err = sink.WorkerSink(r.Worker).WriteVertexCapture(r)
		case *SubgraphCapture:
			err = sink.WorkerSink(r.Worker).WriteSubgraphCapture(r)
		case *MasterCapture:
			err = sink.MasterSink().WriteMasterCapture(r)
		case *SuperstepMeta:
			err = sink.MasterSink().WriteSuperstepMeta(r)
		default:
			t.Fatalf("unexpected record %T", rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(res); err != nil {
		t.Fatal(err)
	}
}

func openReader(t testing.TB, store *Store, jobID string) *Reader {
	t.Helper()
	r, err := store.OpenReader(jobID)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRecordRoundTrip writes one record of each vertex-mode kind
// through a sink and reads every field back through the Reader.
func TestRecordRoundTrip(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	writeRecords(t, store, JobMeta{JobID: "rt", NumWorkers: 3}, JobResult{},
		sampleMeta(), sampleVertexCapture(), sampleMasterCapture())
	r := openReader(t, store, "rt")

	meta := r.MetaAt(41)
	if meta == nil || meta.Superstep != 41 || meta.NumVertices != 10 || meta.NumEdges != 20 {
		t.Fatalf("meta = %+v", meta)
	}
	if !pregel.ValuesEqual(meta.Aggregated["count"], pregel.NewLong(7)) {
		t.Error("meta aggregated mismatch")
	}

	vc := r.Capture(41, 672)
	if vc == nil {
		t.Fatal("vertex capture missing")
	}
	want := sampleVertexCapture()
	if vc.Superstep != want.Superstep || vc.Worker != want.Worker || vc.ID != want.ID {
		t.Errorf("identity fields: %+v", vc)
	}
	if vc.Reasons != want.Reasons {
		t.Errorf("reasons = %v", vc.Reasons)
	}
	if !pregel.ValuesEqual(vc.ValueBefore, want.ValueBefore) ||
		!pregel.ValuesEqual(vc.ValueAfter, want.ValueAfter) {
		t.Error("values mismatch")
	}
	if len(vc.Edges) != 2 || vc.Edges[0].Value != nil ||
		!pregel.ValuesEqual(vc.Edges[1].Value, pregel.NewDouble(1.5)) {
		t.Errorf("edges = %+v", vc.Edges)
	}
	if !vc.EdgesPreCompute || !vc.HaltedAfter {
		t.Error("flags lost")
	}
	if len(vc.Incoming) != 2 || len(vc.Outgoing) != 1 {
		t.Error("message lists lost")
	}
	if len(vc.Violations) != 1 || vc.Violations[0].DstID != 671 {
		t.Errorf("violations = %+v", vc.Violations)
	}
	if vc.Exception == nil || vc.Exception.Message != "boom" || vc.Exception.Stack == "" {
		t.Errorf("exception = %+v", vc.Exception)
	}

	mc := r.MasterAt(41)
	if mc == nil {
		t.Fatal("master capture missing")
	}
	if mc.NumVertices != 1_000_000_000 {
		t.Errorf("master numV = %d", mc.NumVertices)
	}
	if got := mc.AggregatedBefore["phase"].(*pregel.TextValue).Get(); got != "SELECTION" {
		t.Errorf("before phase = %q", got)
	}
	if len(mc.Sets) != 1 || mc.Sets[0].Name != "phase" {
		t.Errorf("sets = %+v", mc.Sets)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	for _, raw := range []string{"NOTATRACE", "GR"} {
		if _, err := scanSegmentEntries([]byte(raw)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("segment %q: err = %v", raw, err)
		}
		if _, err := decodeIndex([]byte(raw)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("index %q: err = %v", raw, err)
		}
	}
}

func TestReaderRejectsCorruptRecord(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	writeRecords(t, store, JobMeta{JobID: "c", NumWorkers: 1}, JobResult{}, sampleMeta())
	raw, err := dfs.ReadFile(fs, "t/c/master/seg_000000.seg")
	if err != nil {
		t.Fatal(err)
	}
	ents, err := scanSegmentEntries(raw)
	if err != nil || len(ents) != 1 {
		t.Fatalf("clean segment: %d entries, err %v", len(ents), err)
	}
	// Truncate mid-record: the frame no longer fits, and the payload
	// cut short no longer decodes.
	if _, err := scanSegmentEntries(raw[:len(raw)-3]); err == nil {
		t.Error("truncated segment scanned cleanly")
	}
	payload := raw[ents[0].Offset : ents[0].Offset+ents[0].Length]
	if _, err := decodeRecordPayload(payload[:len(payload)-3]); err == nil {
		t.Error("truncated payload decoded cleanly")
	}
}

// TestDecodeRecordRejectsHugeCount feeds a vertex capture whose edge
// count is far larger than the payload: the decoder must report
// corruption rather than size an allocation from it.
func TestDecodeRecordRejectsHugeCount(t *testing.T) {
	e := pregel.NewEncoder()
	e.PutUvarint(uint64(kindVertexCapture))
	e.PutUvarint(0) // superstep
	e.PutUvarint(0) // worker
	e.PutVarint(1)  // vertex ID
	e.PutUvarint(0) // reasons
	pregel.EncodeTyped(e, nil)
	pregel.EncodeTyped(e, nil)
	e.PutBool(false)
	e.PutUvarint(1 << 62) // edge count
	if _, err := decodeRecordPayload(e.Bytes()); !errors.Is(err, pregel.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestStoreLayoutAndDB pins the segmented on-disk layout and the
// Reader's view of a two-worker job.
func TestStoreLayoutAndDB(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "graft/traces")
	meta := sampleMeta()
	meta.Superstep = 0
	c1 := sampleVertexCapture()
	c1.Superstep, c1.ID, c1.Worker = 0, 1, 0
	c2 := sampleVertexCapture()
	c2.Superstep, c2.ID, c2.Worker = 0, 2, 1
	c2.Exception = nil
	c2.Violations = nil
	writeRecords(t, store, JobMeta{
		JobID: "job1", Algorithm: "gc", NumWorkers: 2, NumVertices: 4, NumEdges: 6,
	}, JobResult{Supersteps: 1, Reason: "converged", Captures: 2}, meta, c1, c2)

	// Layout check.
	names, _ := fs.List("graft/traces/job1/")
	wantFiles := []string{
		"graft/traces/job1/job.done",
		"graft/traces/job1/job.meta",
		"graft/traces/job1/master.idx",
		"graft/traces/job1/master/seg_000000.seg",
		"graft/traces/job1/worker_00.idx",
		"graft/traces/job1/worker_00/seg_000000.seg",
		"graft/traces/job1/worker_01.idx",
		"graft/traces/job1/worker_01/seg_000000.seg",
	}
	if len(names) != len(wantFiles) {
		t.Fatalf("files = %v", names)
	}
	for i := range names {
		if names[i] != wantFiles[i] {
			t.Errorf("file %d = %q, want %q", i, names[i], wantFiles[i])
		}
	}

	jobs, err := store.ListJobs()
	if err != nil || len(jobs) != 1 || jobs[0] != "job1" {
		t.Fatalf("jobs = %v, %v", jobs, err)
	}

	r := openReader(t, store, "job1")
	if m := r.JobMeta(); m.Algorithm != "gc" || m.NumWorkers != 2 {
		t.Errorf("meta = %+v", m)
	}
	if res := r.JobResult(); res == nil || res.Captures != 2 {
		t.Errorf("result = %+v", res)
	}
	if r.TotalCaptures() != 2 {
		t.Errorf("captures = %d", r.TotalCaptures())
	}
	caps := r.CapturesAt(0)
	if len(caps) != 2 || caps[0].ID != 1 || caps[1].ID != 2 {
		t.Errorf("captures at 0 = %+v", caps)
	}
	if got := r.CapturesOf(1); len(got) != 1 {
		t.Errorf("CapturesOf(1) = %d", len(got))
	}
	if r.MaxSuperstep() != 0 {
		t.Errorf("max superstep = %d", r.MaxSuperstep())
	}
	st := r.StatusAt(0)
	if !st.MessageViolation || !st.Exception || st.VertexViolation {
		t.Errorf("status = %+v", st)
	}

	if err := store.RemoveJob("job1"); err != nil {
		t.Fatal(err)
	}
	if jobs, _ := store.ListJobs(); len(jobs) != 0 {
		t.Errorf("jobs after remove = %v", jobs)
	}
}

func TestReadResultUnfinished(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	sink, err := store.NewSink(JobMeta{JobID: "x", NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.CloseFiles(); err != nil {
		t.Fatal(err)
	}
	_, done, err := store.ReadResult("x")
	if err != nil || done {
		t.Fatalf("unfinished job: done=%v err=%v", done, err)
	}
	if r := openReader(t, store, "x"); r.JobResult() != nil {
		t.Errorf("unfinished job has result %+v", r.JobResult())
	}
}

func TestSearchQueries(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	mk := func(superstep int, id pregel.VertexID, val string, edgeTo pregel.VertexID, outVal string) *VertexCapture {
		return &VertexCapture{
			Superstep:  superstep,
			ID:         id,
			ValueAfter: pregel.NewText(val),
			Edges:      []pregel.Edge{{Target: edgeTo}},
			Outgoing:   []OutMsg{{To: edgeTo, Value: pregel.NewText(outVal)}},
		}
	}
	writeRecords(t, store, JobMeta{JobID: "q", Algorithm: "x", NumWorkers: 1}, JobResult{},
		&SuperstepMeta{Superstep: 0},
		&SuperstepMeta{Superstep: 1},
		mk(0, 1, "RED", 2, "hello"),
		mk(0, 2, "BLUE", 3, "world"),
		mk(1, 1, "GREEN", 2, "hello again"),
	)
	r := openReader(t, store, "q")

	id1 := pregel.VertexID(1)
	nbr2 := pregel.VertexID(2)
	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{Superstep: -1}, 3},
		{"superstep 0", Query{Superstep: 0}, 2},
		{"by vertex", Query{Superstep: -1, VertexID: &id1}, 2},
		{"by neighbor", Query{Superstep: -1, NeighborID: &nbr2}, 2},
		{"by value", Query{Superstep: -1, ValueContains: "BLUE"}, 1},
		{"by message", Query{Superstep: -1, MessageContains: "hello"}, 2},
		{"combined", Query{Superstep: 1, VertexID: &id1, MessageContains: "again"}, 1},
		{"no match", Query{Superstep: -1, ValueContains: "PURPLE"}, 0},
	}
	for _, c := range cases {
		if got := len(r.Search(c.q)); got != c.want {
			t.Errorf("%s: got %d matches, want %d", c.name, got, c.want)
		}
	}
}

// TestReaderRejectsCorruptSegment damages a written segment: a record
// cut short and a file that is not a segment at all both surface as
// errors from Verify and from the lookup path's Err.
func TestReaderRejectsCorruptSegment(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	c := sampleVertexCapture()
	c.Worker = 0
	writeRecords(t, store, JobMeta{JobID: "bad", Algorithm: "x", NumWorkers: 1}, JobResult{}, c)
	const seg = "t/bad/worker_00/seg_000000.seg"
	raw, err := dfs.ReadFile(fs, seg)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the worker segment mid-record.
	if err := dfs.WriteFile(fs, seg, raw[:len(raw)-5]); err != nil {
		t.Fatal(err)
	}
	r := openReader(t, store, "bad")
	if err := r.Verify(); err == nil {
		t.Error("Verify accepted a truncated segment")
	}
	if got := r.Capture(c.Superstep, c.ID); got != nil || r.Err() == nil {
		t.Errorf("lookup in a truncated segment: capture %v, err %v", got, r.Err())
	}
	// And a file that is not a segment at all.
	if err := dfs.WriteFile(fs, seg, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	r = openReader(t, store, "bad")
	if err := r.Verify(); !errors.Is(err, ErrBadMagic) {
		t.Errorf("Verify err = %v, want bad magic", err)
	}
	if got := r.Capture(c.Superstep, c.ID); got != nil || !errors.Is(r.Err(), ErrBadMagic) {
		t.Errorf("lookup in a garbage segment: capture %v, err %v", got, r.Err())
	}
}

func TestOpenReaderMissingJob(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	if _, err := store.OpenReader("ghost"); err == nil {
		t.Fatal("missing job accepted")
	}
}

func TestCheckAdjacentPairsDirect(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	mk := func(id pregel.VertexID, color int64, edges ...pregel.VertexID) *VertexCapture {
		c := &VertexCapture{Superstep: 0, ID: id, ValueAfter: pregel.NewLong(color)}
		for _, e := range edges {
			c.Edges = append(c.Edges, pregel.Edge{Target: e})
		}
		return c
	}
	// 1-2 same color (violation), 2-3 different (ok), 1-9 where 9 is
	// uncaptured (skipped).
	writeRecords(t, store, JobMeta{JobID: "pairs", Algorithm: "x", NumWorkers: 1}, JobResult{},
		&SuperstepMeta{Superstep: 0},
		mk(1, 5, 2, 9),
		mk(2, 5, 1, 3),
		mk(3, 6, 2),
	)
	got := CheckAdjacentPairs(openReader(t, store, "pairs"), func(a, b *VertexCapture) bool {
		return !pregel.ValuesEqual(a.ValueAfter, b.ValueAfter)
	})
	if len(got) != 1 || got[0].A.ID != 1 || got[0].B.ID != 2 {
		t.Fatalf("pairs = %+v", got)
	}
}

func TestReasonString(t *testing.T) {
	r := ReasonByID | ReasonException
	if got := r.String(); got != "by-id+exception" {
		t.Errorf("Reason string = %q", got)
	}
	if Reason(0).String() != "none" {
		t.Error("zero reason string")
	}
	if !r.Has(ReasonByID) || r.Has(ReasonRandom) {
		t.Error("Has wrong")
	}
}

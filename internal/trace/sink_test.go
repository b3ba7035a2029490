package trace

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// writeSinkJob writes a small deterministic job through a Sink: three
// supersteps, two workers, vertex IDs 100*(worker+1)+superstep, a
// master capture and a superstep meta per step, with a barrier flush
// after each superstep.
func writeSinkJob(t *testing.T, store *Store, jobID string, opts ...Option) {
	t.Helper()
	sink, err := store.NewSink(JobMeta{
		JobID: jobID, Algorithm: "gc", NumWorkers: 2, NumVertices: 6, NumEdges: 12,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var captures int64
	for step := 0; step < 3; step++ {
		for w := 0; w < 2; w++ {
			c := sampleVertexCapture()
			c.Superstep, c.Worker = step, w
			c.ID = pregel.VertexID(100*(w+1) + step)
			if err := sink.WorkerSink(w).WriteVertexCapture(c); err != nil {
				t.Fatal(err)
			}
			captures++
		}
		mc := sampleMasterCapture()
		mc.Superstep = step
		if err := sink.MasterSink().WriteMasterCapture(mc); err != nil {
			t.Fatal(err)
		}
		meta := sampleMeta()
		meta.Superstep = step
		if err := sink.MasterSink().WriteSuperstepMeta(meta); err != nil {
			t.Fatal(err)
		}
		if err := sink.BarrierFlush(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(JobResult{Supersteps: 3, Reason: "max supersteps", Captures: captures}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if n := sink.DroppedRecords(); n != 0 {
		t.Fatalf("dropped %d records under Block policy", n)
	}
}

func TestSinkSegmentedRoundTrip(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	writeSinkJob(t, store, "job1")

	// The on-disk layout is segments plus index sidecars.
	names, err := fs.List("t/job1/")
	if err != nil {
		t.Fatal(err)
	}
	var segs, idxs int
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".seg"):
			segs++
		case strings.HasSuffix(n, ".idx"):
			idxs++
		}
	}
	if segs == 0 || idxs != 3 {
		t.Fatalf("layout: %d segments, %d index sidecars (want 3), files=%v", segs, idxs, names)
	}

	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.JobMeta(); got.Format != FormatSegments || got.Algorithm != "gc" {
		t.Errorf("meta = %+v", got)
	}
	if res := r.JobResult(); res == nil || res.Captures != 6 {
		t.Errorf("result = %+v", res)
	}
	if got := r.Supersteps(); len(got) != 3 {
		t.Errorf("supersteps = %v", got)
	}
	if n := r.TotalCaptures(); n != 6 {
		t.Errorf("total captures = %d", n)
	}
	c := r.Capture(1, 201)
	if c == nil || c.Worker != 1 || c.Superstep != 1 {
		t.Fatalf("capture(1, 201) = %+v", c)
	}
	want := sampleVertexCapture()
	if !pregel.ValuesEqual(c.ValueAfter, want.ValueAfter) || c.Reasons != want.Reasons {
		t.Errorf("capture fields lost in round trip: %+v", c)
	}
	if mc := r.MasterAt(2); mc == nil || mc.NumVertices != 1_000_000_000 {
		t.Errorf("master at 2 = %+v", mc)
	}
	if m := r.MetaAt(0); m == nil || m.NumVertices != 10 {
		t.Errorf("meta at 0 = %+v", m)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkSingleLookupSegmentReads pins the lazy-read acceptance
// claim: a cold single-vertex lookup fetches at most one segment.
func TestSinkSingleLookupSegmentReads(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	// A small segment size forces several segments per lane, so the
	// check is not vacuous.
	writeSinkJob(t, store, "job1", WithSegmentSize(64))
	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if c := r.Capture(2, 102); c == nil {
		t.Fatal("capture(2, 102) missing")
	}
	if n := r.SegmentReads(); n > 1 {
		t.Errorf("single lookup read %d segments, want at most 1", n)
	}
}

// TestSinkReadsBackRecordsWritten pins the sink's contract: every
// record it accepts is read back exactly, byte for byte once encoded,
// and nothing else is. Batch size 3 exercises partial-batch pushes at
// barriers; segment size 64 exercises mid-stream seals on the drainer.
func TestSinkReadsBackRecordsWritten(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	sink, err := store.NewSink(JobMeta{JobID: "job1", NumWorkers: 2}, WithBatchSize(3), WithSegmentSize(64))
	if err != nil {
		t.Fatal(err)
	}
	key := func(rec any) string {
		e := pregel.NewEncoder()
		if err := encodeRecordPayload(e, rec); err != nil {
			t.Fatal(err)
		}
		return string(e.Bytes())
	}
	var written, read []string
	for step := 0; step < 4; step++ {
		for w := 0; w < 2; w++ {
			for k := 0; k < 5; k++ {
				c := sampleVertexCapture()
				c.Superstep, c.Worker, c.ID = step, w, pregel.VertexID(1000*w+10*step+k)
				c.ValueAfter = pregel.NewLong(int64(step*k - w))
				if err := sink.WorkerSink(w).WriteVertexCapture(c); err != nil {
					t.Fatal(err)
				}
				written = append(written, key(c))
			}
		}
		mc, meta := sampleMasterCapture(), sampleMeta()
		mc.Superstep, meta.Superstep = step, step
		if err := sink.MasterSink().WriteMasterCapture(mc); err != nil {
			t.Fatal(err)
		}
		if err := sink.MasterSink().WriteSuperstepMeta(meta); err != nil {
			t.Fatal(err)
		}
		written = append(written, key(mc), key(meta))
		if err := sink.BarrierFlush(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(JobResult{Supersteps: 4}); err != nil {
		t.Fatal(err)
	}
	if n := sink.DroppedRecords(); n != 0 {
		t.Fatalf("dropped %d records under Block policy", n)
	}

	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Supersteps() {
		for _, c := range r.CapturesAt(s) {
			read = append(read, key(c))
		}
		if mc := r.MasterAt(s); mc != nil {
			read = append(read, key(mc))
		}
		if m := r.MetaAt(s); m != nil {
			read = append(read, key(m))
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(written)
	sort.Strings(read)
	if !reflect.DeepEqual(read, written) {
		t.Fatalf("read back %d records, wrote %d; the sets differ", len(read), len(written))
	}
}

// TestSinkBatchSizeOne pins the edge case where every record is its
// own batch message.
func TestSinkBatchSizeOne(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	writeSinkJob(t, store, "job1", WithBatchSize(1), WithQueueCapacity(1))
	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if n := r.TotalCaptures(); n != 6 {
		t.Errorf("total captures = %d", n)
	}
}

// gateFS wraps a FileSystem and blocks every segment-file Create until
// the gate opens, simulating a wedged remote store. Index and manifest
// writes pass through so only the drainer's seal path hangs.
type gateFS struct {
	dfs.FileSystem
	gate chan struct{}
}

func (g *gateFS) Create(path string) (io.WriteCloser, error) {
	if strings.HasSuffix(path, ".seg") {
		<-g.gate
	}
	return g.FileSystem.Create(path)
}

// TestSinkDropPolicyNeverBlocks is the chaos check for the Drop
// policy: with the store wedged solid, a producer keeps submitting and
// must never stall — overflow is counted, not waited out, and the
// backpressure drops do not poison Err, which is reserved for
// structural write failures.
func TestSinkDropPolicyNeverBlocks(t *testing.T) {
	gate := &gateFS{FileSystem: dfs.NewMemFS(), gate: make(chan struct{})}
	store := NewStore(gate, "t")
	sink, err := store.NewSink(JobMeta{JobID: "job1", NumWorkers: 1},
		WithBackpressure(Drop),
		WithBatchSize(1),
		WithQueueCapacity(1),
		// One record overflows the segment, so the very first batch
		// wedges the drainer in Create.
		WithSegmentSize(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 1000
	done := make(chan error, 1)
	go func() {
		w := sink.WorkerSink(0)
		for i := 0; i < writes; i++ {
			c := sampleVertexCapture()
			c.ID = pregel.VertexID(i)
			if err := w.WriteVertexCapture(c); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer blocked under Drop policy with a wedged store")
	}
	if n := sink.DroppedRecords(); n == 0 {
		t.Error("wedged store dropped nothing")
	} else if n >= writes {
		t.Errorf("all %d records dropped; queue accepted none", writes)
	}
	if err := sink.Err(); err != nil {
		t.Errorf("backpressure drops set Err: %v", err)
	}
	close(gate.gate) // unwedge so shutdown can seal what was accepted
	if err := sink.CloseFiles(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	// What the queue accepted survived the wedge.
	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.TotalCaptures(), int64(writes)-sink.DroppedRecords(); got != want {
		t.Errorf("read back %d captures, want %d (=%d written - %d dropped)",
			got, want, writes, sink.DroppedRecords())
	}
}

// failFS fails every segment-file Create: the structural-failure path,
// as opposed to backpressure.
type failFS struct {
	dfs.FileSystem
}

var errDiskGone = errors.New("disk gone")

func (f *failFS) Create(path string) (io.WriteCloser, error) {
	if strings.HasSuffix(path, ".seg") {
		return nil, errDiskGone
	}
	return f.FileSystem.Create(path)
}

// TestSinkWriteErrorVsDropAccounting pins the distinction between the
// two loss ledgers: a structural write failure surfaces in Err (and
// counts the segment's records as lost), while Drop-policy overflow
// only ever increments DroppedRecords. A reader of the stats must be
// able to tell "storage broke" from "storage was slow".
func TestSinkWriteErrorVsDropAccounting(t *testing.T) {
	store := NewStore(&failFS{dfs.NewMemFS()}, "t")
	sink, err := store.NewSink(JobMeta{JobID: "job1", NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The write only queues the record; the failure shows when the
	// barrier tries to commit its segment.
	if err := sink.WorkerSink(0).WriteVertexCapture(sampleVertexCapture()); err != nil {
		t.Fatalf("queueing a record failed: %v", err)
	}
	if err := sink.BarrierFlush(0); !errors.Is(err, errDiskGone) {
		t.Errorf("BarrierFlush = %v, want the storage failure", err)
	}
	if err := sink.Err(); !errors.Is(err, errDiskGone) {
		t.Errorf("Err() = %v, want the storage failure", err)
	}
	if n := sink.DroppedRecords(); n != 1 {
		t.Errorf("lost-record count = %d, want 1", n)
	}
}

// TestSinkBarrierFlushRace hammers one worker sink from its producer
// goroutine while the coordinator runs barrier flushes and stats
// queries, the way the engine drives a live sink. Run under -race this
// pins the locking around the shared lane batch.
func TestSinkBarrierFlushRace(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	sink, err := store.NewSink(JobMeta{JobID: "job1", NumWorkers: 1},
		WithBatchSize(4), WithQueueCapacity(32), WithSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	const writes = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := sink.WorkerSink(0)
		for i := 0; i < writes; i++ {
			c := sampleVertexCapture()
			c.Superstep, c.ID = i/40, pregel.VertexID(i)
			if err := w.WriteVertexCapture(c); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for step := 0; step < 10; step++ {
		if err := sink.BarrierFlush(step); err != nil {
			t.Error(err)
		}
		sink.QueueDepth()
		sink.DroppedRecords()
	}
	wg.Wait()
	if err := sink.Finish(JobResult{Supersteps: 10, Captures: writes}); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if n := r.TotalCaptures(); n != writes {
		t.Errorf("read back %d captures, want %d", n, writes)
	}
}

// TestSinkUnindexedSegmentRecovery kills the index sidecar the way a
// crash between a seal and the next barrier would, and expects the
// reader to scan the orphaned segments back into view.
func TestSinkUnindexedSegmentRecovery(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	writeSinkJob(t, store, "job1", WithSegmentSize(64))

	before, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	wantCaptures := before.TotalCaptures()

	names, err := fs.List("t/job1/")
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".idx") {
			if err := fs.Remove(n); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("no index sidecars to remove")
	}

	after, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalCaptures(); got != wantCaptures {
		t.Errorf("recovered %d captures from unindexed segments, want %d", got, wantCaptures)
	}
	if c := after.Capture(1, 201); c == nil || c.Worker != 1 {
		t.Errorf("capture(1, 201) after index loss = %+v", c)
	}
}

// TestOpenReaderRejectsUnknownFormat pins that the Reader serves only
// the segmented layout: a manifest without a format marker is an
// error naming the format, not a silent fallback.
func TestOpenReaderRejectsUnknownFormat(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	raw, err := json.Marshal(JobMeta{JobID: "old", Algorithm: "sp", NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(fs, "t/old/job.meta", raw); err != nil {
		t.Fatal(err)
	}
	_, err = store.OpenReader("old")
	if err == nil || !strings.Contains(err.Error(), `format ""`) {
		t.Fatalf("err = %v, want an unsupported-format error naming the format", err)
	}
}

// editIndex rewrites a lane's index sidecar with edit applied to its
// first entry.
func editIndex(t *testing.T, fs dfs.FileSystem, path string, edit func(*indexEntry)) {
	t.Helper()
	raw, err := dfs.ReadFile(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := decodeIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	edit(&segs[0].Entries[0])
	if err := dfs.WriteFile(fs, path, encodeIndex(segs)); err != nil {
		t.Fatal(err)
	}
}

// TestReaderVerify pins the full-scan check: it passes on a clean job
// and fails on one flipped segment byte or one edited sidecar entry.
func TestReaderVerify(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	writeSinkJob(t, store, "job1", WithSegmentSize(64))
	if err := openReader(t, store, "job1").Verify(); err != nil {
		t.Fatalf("clean job: %v", err)
	}

	const seg = "t/job1/worker_00/seg_000000.seg"
	clean, err := dfs.ReadFile(fs, seg)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := scanSegmentEntries(clean)
	if err != nil {
		t.Fatal(err)
	}
	// The first record is vertex 100's capture: payload byte 0 is its
	// kind (a flip no longer decodes), byte 3 the low byte of its
	// zig-zag ID (a flip decodes, as vertex 101, at a location the
	// index does not hold).
	for _, pos := range []int{0, 3} {
		bad := append([]byte(nil), clean...)
		bad[ents[0].Offset+pos] ^= 0x02
		if err := dfs.WriteFile(fs, seg, bad); err != nil {
			t.Fatal(err)
		}
		if err := openReader(t, store, "job1").Verify(); err == nil {
			t.Errorf("Verify accepted a flipped byte at payload offset %d", pos)
		}
	}
	if err := dfs.WriteFile(fs, seg, clean); err != nil {
		t.Fatal(err)
	}

	editIndex(t, fs, "t/job1/worker_00.idx", func(e *indexEntry) { e.Offset++ })
	if err := openReader(t, store, "job1").Verify(); err == nil {
		t.Error("Verify accepted an edited sidecar entry")
	}
}

// TestReaderRejectsBadIndexEntry rewrites a sidecar entry with a
// negative length, and with an offset whose end overflows int: lookups
// must report the entry through Err, and Verify must fail, without a
// panic.
func TestReaderRejectsBadIndexEntry(t *testing.T) {
	for name, edit := range map[string]func(*indexEntry){
		"negative length": func(e *indexEntry) { e.Length = -1 },
		"overflowing end": func(e *indexEntry) { e.Offset, e.Length = math.MaxInt-2, 10 },
	} {
		t.Run(name, func(t *testing.T) {
			fs := dfs.NewMemFS()
			store := NewStore(fs, "t")
			writeSinkJob(t, store, "job1")
			editIndex(t, fs, "t/job1/worker_00.idx", edit)
			r := openReader(t, store, "job1")
			if caps := r.CapturesAt(0); len(caps) != 1 || caps[0].ID != 200 {
				t.Errorf("captures at 0 = %+v, want only vertex 200", caps)
			}
			if r.Err() == nil {
				t.Error("bad index entry not reported through Err")
			}
			if err := r.Verify(); err == nil {
				t.Error("Verify accepted a bad index entry")
			}
		})
	}
}

// TestSinkValidation pins the constructor's manifest checks.
func TestSinkValidation(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	if _, err := store.NewSink(JobMeta{JobID: "", NumWorkers: 1}); err == nil {
		t.Error("empty job ID accepted")
	}
	if _, err := store.NewSink(JobMeta{JobID: "x", NumWorkers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
}

// TestNewSinkRejectsNegativeOptions pins the typed validation: an
// explicitly negative capacity fails the sink instead of being
// silently coerced to the default.
func TestNewSinkRejectsNegativeOptions(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	meta := JobMeta{JobID: "neg", Algorithm: "gc", NumWorkers: 1}
	for name, opt := range map[string]Option{
		"segment size":   WithSegmentSize(-1),
		"queue capacity": WithQueueCapacity(-8),
		"batch size":     WithBatchSize(-2),
	} {
		if _, err := store.NewSink(meta, opt); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", name, err)
		}
	}
	// Zero still means "default".
	sink, err := store.NewSink(meta, WithSegmentSize(0), WithQueueCapacity(0), WithBatchSize(0))
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	_ = sink.CloseFiles()
}

package pregel

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"graft/internal/dfs"
	"graft/internal/segio"
)

// churnCompute sends along every edge, and at superstep 1 removes
// every third vertex and adds a new one per fifth, so a logged run
// writes both outbox frame kinds.
var churnCompute = ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
	sum := int64(v.ID())
	for _, m := range msgs {
		sum += m.(*LongValue).Get()
	}
	v.SetValue(NewLong(sum))
	if ctx.Superstep() == 1 {
		switch {
		case v.ID()%3 == 0:
			ctx.RemoveVertexRequest(v.ID())
		case v.ID()%5 == 0:
			ctx.AddVertexRequest(v.ID()+100, NewLong(7))
			ctx.AddVertexRequest(v.ID()+200, nil)
		}
	}
	if ctx.Superstep() < 3 {
		ctx.SendMessageToAllEdges(v, NewLong(sum%11))
	} else {
		v.VoteToHalt()
	}
	return nil
})

// seedRun runs churnCompute on two workers with a checkpoint before
// every superstep and confined recovery's outbox log, and returns both
// file systems.
func seedRun(tb testing.TB) (ckpt, msglog *dfs.MemFS) {
	ckpt, msglog = dfs.NewMemFS(), dfs.NewMemFS()
	g := NewGraph()
	for i := 0; i < 12; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	for i := 1; i < 12; i++ {
		g.AddUndirectedEdge(VertexID(i-1), VertexID(i), NewLong(int64(i)))
	}
	_, err := NewJob(g, churnCompute, Config{NumWorkers: 2, CheckpointEvery: 1, CheckpointFS: ckpt, CheckpointRetain: -1,
		Recovery: RecoveryLog, MsgLogFS: msglog, DefaultVertexValue: func() Value { return NewLong(-1) }}).Run()
	if err != nil {
		tb.Fatal(err)
	}
	return ckpt, msglog
}

// seedLogFrames returns every outbox-log frame of a real run, located
// through the lanes' index sidecars.
func seedLogFrames(tb testing.TB) [][]byte {
	_, fs := seedRun(tb)
	names, err := fs.List("msglog/")
	if err != nil {
		tb.Fatal(err)
	}
	var frames [][]byte
	kinds := map[uint8]bool{}
	for _, name := range names {
		if !strings.HasSuffix(name, ".idx") {
			continue
		}
		raw, err := dfs.ReadFile(fs, name)
		if err != nil {
			tb.Fatal(err)
		}
		segs, err := segio.DecodeIndex(raw)
		if err != nil {
			tb.Fatal(err)
		}
		for _, seg := range segs {
			data, err := dfs.ReadFile(fs, "msglog/"+seg.Name)
			if err != nil {
				tb.Fatal(err)
			}
			for _, ent := range seg.Entries {
				frames = append(frames, data[ent.Offset:ent.Offset+ent.Length])
				kinds[ent.Kind] = true
			}
		}
	}
	if !kinds[msgLogFrameMessages] || !kinds[msgLogFrameMutations] {
		tb.Fatalf("seed run logged frame kinds %v, want both", kinds)
	}
	return frames
}

// seedCheckpoints returns every checkpoint file of a real run.
func seedCheckpoints(tb testing.TB) [][]byte {
	fs, _ := seedRun(tb)
	names, err := fs.List("checkpoint_")
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, name := range names {
		raw, err := dfs.ReadFile(fs, name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
	}
	if len(out) == 0 {
		tb.Fatal("seed run wrote no checkpoint")
	}
	return out
}

func newLoggedStep() *loggedStep {
	return &loggedStep{batches: make([][]loggedBatch, 1),
		senderRemovals: make([][]VertexID, 1), senderAdditions: make([][]vertexAddition, 1)}
}

// withCRC appends the frame checksum to body.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// hugeCounts are element counts no frame or checkpoint can hold: one
// that overflows any allocation and one that wraps negative as an int.
var hugeCounts = []uint64{1 << 62, 1 << 63}

// TestDecodeLogFrameRejectsHugeCounts: a checksum-valid outbox frame
// whose message, removal or addition count exceeds the frame must fail
// to decode, not panic sizing a slice.
func TestDecodeLogFrameRejectsHugeCounts(t *testing.T) {
	for _, n := range hugeCounts {
		for name, body := range map[string][]uint64{
			"messages":  {msgLogFrameMessages, 3, 1, n},
			"removals":  {msgLogFrameMutations, 3, n},
			"additions": {msgLogFrameMutations, 3, 0, n},
		} {
			e := NewEncoder()
			e.PutRaw([]byte{byte(body[0])})
			for _, x := range body[1:] {
				e.PutUvarint(x)
			}
			err := decodeLogFrame(withCRC(e.Bytes()), 0, newLoggedStep())
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s count %d: err = %v, want ErrCorrupt", name, n, err)
			}
		}
	}
}

// TestDecodeCheckpointRejectsHugeCounts: a checkpoint whose aggregator,
// placement-table or per-partition vertex count exceeds the file must
// fail to decode, not panic sizing a slice.
func TestDecodeCheckpointRejectsHugeCounts(t *testing.T) {
	en := newEngine(NewJob(pathGraph(t, 4), ccCompute, Config{NumWorkers: 2}))
	for _, n := range hugeCounts {
		for name, counts := range map[string][]uint64{
			"aggregators": {n},
			"moved":       {0, n},
			"vertices":    {0, 0, n},
		} {
			e := NewEncoder()
			e.PutString(checkpointMagic)
			e.PutUvarint(0) // superstep
			e.PutUvarint(2) // partitions
			for _, x := range counts {
				e.PutUvarint(x)
			}
			if _, err := en.decodeCheckpoint(e.Bytes()); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s count %d: err = %v, want ErrCorrupt", name, n, err)
			}
		}
	}
}

// FuzzDecodeLogFrame: any input, taken as a whole frame or as a frame
// body with a valid checksum appended, decodes or returns an error;
// it never panics, and a decoded frame holds no more entries than it
// has bytes.
func FuzzDecodeLogFrame(f *testing.F) {
	for _, frame := range seedLogFrames(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)-4]) // the body, for the recomputed checksum
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		decodeLogFrame(raw, 0, newLoggedStep())
		st := newLoggedStep()
		if err := decodeLogFrame(withCRC(raw), 0, st); err != nil {
			return
		}
		n := len(st.senderRemovals[0]) + len(st.senderAdditions[0])
		for _, b := range st.batches[0] {
			n += len(b.entries)
		}
		if n > len(raw) {
			t.Fatalf("decoded %d entries from %d bytes", n, len(raw))
		}
	})
}

// FuzzDecodeCheckpoint: any input decodes or returns an error; it
// never panics.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, raw := range seedCheckpoints(f) {
		f.Add(raw)
	}
	g := NewGraph()
	en := newEngine(NewJob(g, churnCompute, Config{NumWorkers: 2}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := en.decodeCheckpoint(raw)
		if err != nil {
			return
		}
		if len(st.parts) != 2 {
			t.Fatalf("decoded %d partitions, engine has 2", len(st.parts))
		}
	})
}

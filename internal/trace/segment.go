package trace

import (
	"bytes"
	"sync/atomic"

	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/segio"
)

// Segmented trace layout. Each lane (one per worker, one for the
// master) is a directory of segment files plus an index sidecar:
//
//	<root>/<jobID>/worker_NN/seg_000000.seg
//	<root>/<jobID>/worker_NN/seg_000001.seg
//	<root>/<jobID>/worker_NN.idx
//	<root>/<jobID>/master/seg_000000.seg
//	<root>/<jobID>/master.idx
//
// A segment file is the magic "GRFTSEG1" followed by framed records
// (uvarint length ++ payload), so a segment remains scannable without
// its index. Segments are sealed —
// committed whole through the atomic-on-close file system — at the
// configured size and at every superstep barrier, which is what makes
// crash and chaos runs replayable: everything up to the last completed
// barrier is durable.
//
// The index sidecar is the magic "GRFTIDX1" followed by, per sealed
// segment, its file name and one (kind, superstep, vertexID, offset,
// length) entry per record, where offset/length locate the record's
// payload inside the segment file. It is rewritten atomically at each
// barrier; a reader that finds segment files missing from the index
// (crash between a segment commit and the index rewrite) falls back to
// scanning just those segments.
//
// The container mechanics — framing, sealing, index encoding — live in
// the dependency-free segio package so the engine's outbox logs can
// share them; this file binds them to trace record types.
const (
	segMagic = segio.SegMagic
	idxMagic = segio.IdxMagic
)

// indexEntry locates one record's payload inside a segment file, with
// trace-typed coordinates.
type indexEntry struct {
	Kind      recordKind
	Superstep int
	VertexID  pregel.VertexID // 0 unless Kind is kindVertexCapture or kindSubgraphCapture
	Offset    int             // payload start within the segment file
	Length    int             // payload length
}

// segmentIndex is the index of one sealed segment: its file name
// (relative to the job directory) and the entries in record order.
type segmentIndex struct {
	Name    string
	Entries []indexEntry
}

func toSegioEntry(ent indexEntry) segio.Entry {
	return segio.Entry{
		Kind:   uint8(ent.Kind),
		Step:   ent.Superstep,
		ID:     int64(ent.VertexID),
		Offset: ent.Offset,
		Length: ent.Length,
	}
}

func fromSegioEntry(ent segio.Entry) indexEntry {
	return indexEntry{
		Kind:      recordKind(ent.Kind),
		Superstep: ent.Step,
		VertexID:  pregel.VertexID(ent.ID),
		Offset:    ent.Offset,
		Length:    ent.Length,
	}
}

// segmentWriter owns one lane: the generic segio writer plus the trace
// record codec and drop accounting. Not safe for concurrent use; each
// lane's drainer goroutine is its only caller.
type segmentWriter struct {
	w *segio.Writer
	// dropped counts records discarded when a segment cannot be
	// committed; shared with the owning sink's DroppedRecords.
	dropped *atomic.Int64
}

func newSegmentWriter(fs dfs.FileSystem, jobDir, lane string, segSize int, dropped *atomic.Int64) *segmentWriter {
	sw := &segmentWriter{dropped: dropped}
	if sw.dropped == nil {
		sw.dropped = new(atomic.Int64)
	}
	sw.w = segio.NewWriter(fs, jobDir, lane, segSize, func(n int) { sw.dropped.Add(int64(n)) })
	return sw
}

// entryFor builds a record's index coordinates from its payload and
// concrete type.
func entryFor(rec any, payload []byte) indexEntry {
	ent := indexEntry{Kind: recordKind(payload[0]), Length: len(payload)}
	switch r := rec.(type) {
	case *VertexCapture:
		ent.Superstep, ent.VertexID = r.Superstep, r.ID
	case *SubgraphCapture:
		ent.Superstep, ent.VertexID = r.Superstep, r.ID
	case *MasterCapture:
		ent.Superstep = r.Superstep
	case *SuperstepMeta:
		ent.Superstep = r.Superstep
	}
	return ent
}

// encodeFrame appends rec's frame (uvarint length ++ payload) to buf,
// using e and hdr as scratch, and returns the record's index entry
// with Offset relative to buf's start. On an encode failure buf is
// left untouched.
func encodeFrame(e, hdr *pregel.Encoder, buf *bytes.Buffer, rec any) (indexEntry, error) {
	e.Reset()
	if err := encodeRecordPayload(e, rec); err != nil {
		return indexEntry{}, err
	}
	payload := e.Bytes()
	hdr.Reset()
	hdr.PutUvarint(uint64(len(payload)))
	ent := entryFor(rec, payload)
	ent.Offset = buf.Len() + hdr.Len()
	buf.Write(hdr.Bytes())
	buf.Write(payload)
	return ent, nil
}

// appendFramed copies a batch of pre-framed records — frames as laid
// out by encodeFrame, entries with Offsets relative to the start of
// frames — into the open segment, then applies the size threshold.
// The sink's producers frame records at the source so the drainer's
// per-record work is this bulk copy.
func (sw *segmentWriter) appendFramed(frames []byte, entries []indexEntry) error {
	if len(entries) == 0 {
		return nil
	}
	conv := make([]segio.Entry, len(entries))
	for i, ent := range entries {
		conv[i] = toSegioEntry(ent)
	}
	return sw.w.AppendFramed(frames, conv)
}

// flush seals the open segment and rewrites the lane's index sidecar:
// the barrier hook. After flush returns, every record appended so far
// is durable and indexed (or counted as dropped).
func (sw *segmentWriter) flush() error { return sw.w.Flush() }

func encodeIndex(segs []segmentIndex) []byte {
	conv := make([]segio.SegmentIndex, len(segs))
	for i, seg := range segs {
		ents := make([]segio.Entry, len(seg.Entries))
		for j, ent := range seg.Entries {
			ents[j] = toSegioEntry(ent)
		}
		conv[i] = segio.SegmentIndex{Name: seg.Name, Entries: ents}
	}
	return segio.EncodeIndex(conv)
}

func decodeIndex(raw []byte) ([]segmentIndex, error) {
	segs, err := segio.DecodeIndex(raw)
	if err != nil {
		if err == segio.ErrBadMagic {
			return nil, ErrBadMagic
		}
		return nil, err
	}
	conv := make([]segmentIndex, len(segs))
	for i, seg := range segs {
		ents := make([]indexEntry, len(seg.Entries))
		for j, ent := range seg.Entries {
			ents[j] = fromSegioEntry(ent)
		}
		conv[i] = segmentIndex{Name: seg.Name, Entries: ents}
	}
	return conv, nil
}

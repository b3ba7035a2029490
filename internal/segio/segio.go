// Package segio implements the append-only segment+index container
// format introduced by the trace store and reused by the engine's
// sender-side outbox logs. A lane is a directory of segment files plus
// an index sidecar:
//
//	<dir>/<lane>/seg_000000.seg
//	<dir>/<lane>/seg_000001.seg
//	<dir>/<lane>.idx
//
// A segment file is the magic "GRFTSEG1" followed by framed records
// (uvarint payload length ++ payload). Segments are sealed — committed
// whole through the atomic-on-close file system — at a size threshold
// and at every flush, which is what makes the format crash-consistent:
// everything up to the last completed flush is durable.
//
// The index sidecar is the magic "GRFTIDX1" followed by, per sealed
// segment, its file name and one (kind, step, id, offset, length)
// entry per record, where offset/length locate the record's payload
// inside the segment file. The byte layout is identical to the trace
// store's original GRFTIDX1 encoding, so existing sidecars remain
// readable.
//
// The package is deliberately a leaf: it depends only on the standard
// library, so both the trace layer (which imports the engine) and the
// engine itself (which must not import the trace layer) can build on
// it.
package segio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// SegMagic prefixes every segment file.
	SegMagic = "GRFTSEG1"
	// IdxMagic prefixes every index sidecar.
	IdxMagic = "GRFTIDX1"
)

// ErrBadMagic is returned when a segment or index file does not start
// with its magic.
var ErrBadMagic = errors.New("segio: bad magic")

// ErrCorrupt is returned when an index or frame is malformed.
var ErrCorrupt = errors.New("segio: corrupt data")

// FS is the minimal file-system contract segio writes through. It is
// structurally identical to dfs.FileSystem and pregel.FileSystem, so
// any of their implementations satisfies it.
type FS interface {
	// Create opens a new file for writing, truncating any existing
	// file at the path. The file becomes visible atomically on Close.
	Create(path string) (io.WriteCloser, error)
	// Open opens an existing file for reading.
	Open(path string) (io.ReadCloser, error)
	// List returns the paths of all files whose names start with
	// prefix, in lexicographic order.
	List(prefix string) ([]string, error)
	// Remove deletes a file.
	Remove(path string) error
}

// Entry locates one record's payload inside a segment file. Kind, Step
// and ID are caller-defined record coordinates (the trace store uses
// record kind / superstep / vertex ID; the outbox log uses frame kind /
// superstep / destination partition).
type Entry struct {
	Kind   uint8
	Step   int
	ID     int64
	Offset int // payload start within the segment file
	Length int // payload length
}

// SegmentIndex is the index of one sealed segment: its file name
// (relative to the writer's directory) and the entries in record order.
type SegmentIndex struct {
	Name    string
	Entries []Entry
}

// Writer owns one lane: it buffers the current segment in memory,
// seals it to a segment file when full or on Flush, and rewrites the
// lane's index sidecar. Not safe for concurrent use; each lane must
// have exactly one writing goroutine.
type Writer struct {
	fs      FS
	dir     string
	lane    string
	segSize int
	// onDrop, if non-nil, is called with the number of records
	// discarded when a segment cannot be committed.
	onDrop func(n int)

	hdr    [binary.MaxVarintLen64]byte
	buf    bytes.Buffer // current open segment, magic included
	cur    []Entry
	sealed []SegmentIndex
	segSeq int
	recs   int64
	dirty  bool // records or seals since the last index rewrite
}

// NewWriter creates a writer for one lane under dir. Segments are
// sealed when the open buffer reaches segSize (and on every Flush).
func NewWriter(fs FS, dir, lane string, segSize int, onDrop func(n int)) *Writer {
	w := &Writer{fs: fs, dir: dir, lane: lane, segSize: segSize, onDrop: onDrop}
	w.buf.WriteString(SegMagic)
	return w
}

// IndexPath returns the path of the lane's index sidecar.
func (w *Writer) IndexPath() string { return w.dir + "/" + w.lane + ".idx" }

// SegmentPath resolves a sealed segment's index-relative name (as in
// SegmentIndex.Name) to its full path.
func (w *Writer) SegmentPath(name string) string { return w.dir + "/" + name }

// Records returns how many records have been appended.
func (w *Writer) Records() int64 { return w.recs }

// Sealed returns the sealed segments in seal order. The slice and its
// entries are owned by the writer; callers must treat them as
// read-only and must not retain them across Prune.
func (w *Writer) Sealed() []SegmentIndex { return w.sealed }

// AppendRecord frames payload (uvarint length ++ payload) into the
// open segment and records an index entry with ent's Kind/Step/ID
// coordinates; Offset and Length are filled in by the writer. The
// segment is sealed once it passes the size threshold.
func (w *Writer) AppendRecord(payload []byte, ent Entry) error {
	n := binary.PutUvarint(w.hdr[:], uint64(len(payload)))
	ent.Offset = w.buf.Len() + n
	ent.Length = len(payload)
	w.buf.Write(w.hdr[:n])
	w.buf.Write(payload)
	w.cur = append(w.cur, ent)
	w.recs++
	w.dirty = true
	if w.buf.Len() >= w.segSize {
		return w.Seal()
	}
	return nil
}

// AppendFramed copies a batch of pre-framed records — frames laid out
// as by AppendRecord, entries with Offsets relative to the start of
// frames — into the open segment, then applies the size threshold.
func (w *Writer) AppendFramed(frames []byte, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	delta := w.buf.Len()
	w.buf.Write(frames)
	for _, ent := range entries {
		ent.Offset += delta
		w.cur = append(w.cur, ent)
	}
	w.recs += int64(len(entries))
	w.dirty = true
	if w.buf.Len() >= w.segSize {
		return w.Seal()
	}
	return nil
}

// Seal commits the open segment as its own file. Empty segments are
// skipped so flushes without records cost no file. A segment that
// cannot be committed is discarded — its records are reported to
// onDrop — so a persistently failing store can never grow the buffer
// without bound.
func (w *Writer) Seal() error {
	if len(w.cur) == 0 {
		return nil
	}
	name := fmt.Sprintf("%s/seg_%06d.seg", w.lane, w.segSeq)
	err := writeFile(w.fs, w.dir+"/"+name, w.buf.Bytes())
	if err != nil {
		if w.onDrop != nil {
			w.onDrop(len(w.cur))
		}
	} else {
		w.sealed = append(w.sealed, SegmentIndex{Name: name, Entries: w.cur})
		w.segSeq++
	}
	w.cur = nil
	w.buf.Reset()
	w.buf.WriteString(SegMagic)
	return err
}

// Flush seals the open segment and rewrites the lane's index sidecar.
// After Flush returns nil, every record appended so far is durable and
// indexed (or has been reported dropped).
func (w *Writer) Flush() error {
	if !w.dirty {
		return nil
	}
	err := w.Seal()
	if ierr := writeFile(w.fs, w.IndexPath(), EncodeIndex(w.sealed)); ierr != nil && err == nil {
		err = ierr
	}
	if err == nil {
		w.dirty = false
	}
	return err
}

// Prune drops sealed segments for which keep returns false: the index
// sidecar is rewritten first (so no live index references a removed
// file), then the segment files are deleted. Used by retention GC.
func (w *Writer) Prune(keep func(SegmentIndex) bool) error {
	kept := make([]SegmentIndex, 0, len(w.sealed))
	var drop []string
	for _, seg := range w.sealed {
		if keep(seg) {
			kept = append(kept, seg)
		} else {
			drop = append(drop, seg.Name)
		}
	}
	if len(drop) == 0 {
		return nil
	}
	w.sealed = kept
	if err := writeFile(w.fs, w.IndexPath(), EncodeIndex(w.sealed)); err != nil {
		return err
	}
	var firstErr error
	for _, name := range drop {
		if err := w.fs.Remove(w.dir + "/" + name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// EncodeIndex serializes sealed-segment indexes in the GRFTIDX1
// layout: the magic, a uvarint segment count, then per segment its
// length-prefixed name, a uvarint entry count and per entry the
// uvarint kind, uvarint step, zig-zag varint ID, uvarint offset and
// uvarint length.
func EncodeIndex(segs []SegmentIndex) []byte {
	b := []byte(IdxMagic)
	b = binary.AppendUvarint(b, uint64(len(segs)))
	for _, seg := range segs {
		b = binary.AppendUvarint(b, uint64(len(seg.Name)))
		b = append(b, seg.Name...)
		b = binary.AppendUvarint(b, uint64(len(seg.Entries)))
		for _, ent := range seg.Entries {
			b = binary.AppendUvarint(b, uint64(ent.Kind))
			b = binary.AppendUvarint(b, uint64(ent.Step))
			b = binary.AppendVarint(b, ent.ID)
			b = binary.AppendUvarint(b, uint64(ent.Offset))
			b = binary.AppendUvarint(b, uint64(ent.Length))
		}
	}
	return b
}

// DecodeIndex parses an index sidecar produced by EncodeIndex.
func DecodeIndex(raw []byte) ([]SegmentIndex, error) {
	if len(raw) < len(IdxMagic) || string(raw[:len(IdxMagic)]) != IdxMagic {
		return nil, ErrBadMagic
	}
	d := decoder{b: raw[len(IdxMagic):]}
	nSegs := d.count()
	if d.err != nil {
		return nil, d.err
	}
	segs := make([]SegmentIndex, 0, nSegs)
	for i := uint64(0); i < nSegs; i++ {
		seg := SegmentIndex{Name: d.str()}
		nEnts := d.count()
		if d.err != nil {
			return nil, d.err
		}
		seg.Entries = make([]Entry, 0, nEnts)
		for j := uint64(0); j < nEnts; j++ {
			seg.Entries = append(seg.Entries, Entry{
				Kind:   uint8(d.uvarint()),
				Step:   int(d.uvarint()),
				ID:     d.varint(),
				Offset: int(d.uvarint()),
				Length: int(d.uvarint()),
			})
		}
		if d.err != nil {
			return nil, d.err
		}
		segs = append(segs, seg)
	}
	return segs, d.err
}

// CheckSegment verifies a segment file's magic.
func CheckSegment(raw []byte) error {
	if len(raw) < len(SegMagic) || string(raw[:len(SegMagic)]) != SegMagic {
		return ErrBadMagic
	}
	return nil
}

// ReadFile reads the whole file at path through fs.
func ReadFile(fs FS, path string) ([]byte, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// writeFile writes data to path in one create/write/close cycle.
func writeFile(fs FS, path string, data []byte) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// decoder is a minimal sticky-error varint reader matching the
// pregel.Decoder wire format.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w at offset %d", ErrCorrupt, d.off)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return x
}

// count reads an element count, failing if it exceeds the bytes left:
// every element takes at least one byte, so a larger count is corrupt
// and must not size an allocation.
func (d *decoder) count() uint64 {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

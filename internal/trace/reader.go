package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// recordLoc locates one record: segment name relative to the job
// directory plus the payload's offset and length inside it.
type recordLoc struct {
	seg string
	off int
	ln  int
}

func (l recordLoc) String() string {
	return fmt.Sprintf("%s offset %d length %d", l.seg, l.off, l.ln)
}

// locations maps record coordinates to the record's byte location.
// Where two records share coordinates, the one placed last wins.
type locations struct {
	metaLoc     map[int]recordLoc
	masterLoc   map[int]recordLoc
	vertexLoc   map[int]map[pregel.VertexID]recordLoc
	subgraphLoc map[int]map[pregel.VertexID]recordLoc
}

func newLocations() locations {
	return locations{
		metaLoc:     map[int]recordLoc{},
		masterLoc:   map[int]recordLoc{},
		vertexLoc:   map[int]map[pregel.VertexID]recordLoc{},
		subgraphLoc: map[int]map[pregel.VertexID]recordLoc{},
	}
}

// Reader is the lazy, index-driven read half of the redesigned trace
// API. Open with Store.OpenReader. It loads only the index sidecars up
// front; record payloads are fetched segment by segment as views ask
// for them, through a bounded segment cache — a GUI page or a replay
// reads only the segments holding what it renders.
//
// Reader is safe for concurrent use.
type Reader struct {
	store *Store
	dir   string
	meta  JobMeta
	res   *JobResult

	locations
	steps []int
	// segOrder lists every segment in lane+sequence order: the order
	// in which loadIndex and Verify place records.
	segOrder []string

	mu         sync.Mutex
	cache      map[string][]byte
	cacheOrder []string
	cacheBytes int
	cacheLimit int
	segReads   atomic.Int64
	err        error
}

// maxSegmentCacheBytes bounds the Reader's in-memory segment cache.
const maxSegmentCacheBytes = 32 << 20

// OpenReader opens a job's trace for lazy, indexed reads, served from
// the index sidecars Store.NewSink writes. A manifest of any other
// format is rejected.
func (s *Store) OpenReader(jobID string) (*Reader, error) {
	meta, err := s.ReadMeta(jobID)
	if err != nil {
		return nil, err
	}
	if meta.Format != FormatSegments {
		return nil, fmt.Errorf("trace: job %q: unsupported trace format %q (want %q)", jobID, meta.Format, FormatSegments)
	}
	r := &Reader{
		store:      s,
		dir:        s.jobDir(jobID),
		meta:       meta,
		cache:      map[string][]byte{},
		cacheLimit: maxSegmentCacheBytes,
	}
	if res, done, err := s.ReadResult(jobID); err != nil {
		return nil, err
	} else if done {
		r.res = &res
	}
	if err := r.loadIndex(); err != nil {
		return nil, err
	}
	return r, nil
}

// loadIndex reads every lane's index sidecar, then scans any segment
// files the sidecars do not cover (sealed after the last barrier's
// index rewrite, e.g. by a crash) to synthesize their entries.
func (r *Reader) loadIndex() error {
	files, err := r.store.FS.List(r.dir + "/")
	if err != nil {
		return err
	}
	r.locations = newLocations()

	var idxFiles, segFiles []string
	for _, name := range files {
		switch {
		case strings.HasSuffix(name, ".idx"):
			idxFiles = append(idxFiles, name)
		case strings.HasSuffix(name, ".seg"):
			segFiles = append(segFiles, strings.TrimPrefix(name, r.dir+"/"))
		}
	}
	sort.Strings(idxFiles)
	sort.Strings(segFiles)

	indexed := map[string]bool{}
	for _, idxPath := range idxFiles {
		raw, err := dfs.ReadFile(r.store.FS, idxPath)
		if err != nil {
			return err
		}
		segs, err := decodeIndex(raw)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", idxPath, err)
		}
		for _, seg := range segs {
			indexed[seg.Name] = true
			r.segOrder = append(r.segOrder, seg.Name)
			for _, ent := range seg.Entries {
				r.place(ent, seg.Name)
			}
		}
	}
	// Unindexed leftovers, in name (= seal sequence) order per lane:
	// newer than anything indexed, so they are placed after and win.
	for _, name := range segFiles {
		if indexed[name] {
			continue
		}
		raw, err := r.segmentBytes(name)
		if err != nil {
			return err
		}
		ents, err := scanSegmentEntries(raw)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", name, err)
		}
		r.segOrder = append(r.segOrder, name)
		for _, ent := range ents {
			r.place(ent, name)
		}
	}
	for s := range r.metaLoc {
		r.steps = append(r.steps, s)
	}
	sort.Ints(r.steps)
	return nil
}

func (l *locations) place(ent indexEntry, seg string) {
	loc := recordLoc{seg: seg, off: ent.Offset, ln: ent.Length}
	switch ent.Kind {
	case kindSuperstepMeta:
		l.metaLoc[ent.Superstep] = loc
	case kindMasterCapture:
		l.masterLoc[ent.Superstep] = loc
	case kindVertexCapture:
		placeIn(l.vertexLoc, ent, loc)
	case kindSubgraphCapture:
		placeIn(l.subgraphLoc, ent, loc)
	}
}

func placeIn(locs map[int]map[pregel.VertexID]recordLoc, ent indexEntry, loc recordLoc) {
	m := locs[ent.Superstep]
	if m == nil {
		m = map[pregel.VertexID]recordLoc{}
		locs[ent.Superstep] = m
	}
	m[ent.VertexID] = loc
}

// recordKey is a record's coordinates: what locations maps from.
type recordKey struct {
	kind recordKind
	step int
	id   pregel.VertexID // 0 for metas and master captures
}

// flat returns every location in l keyed by record coordinates.
func (l *locations) flat() map[recordKey]recordLoc {
	out := map[recordKey]recordLoc{}
	for s, loc := range l.metaLoc {
		out[recordKey{kindSuperstepMeta, s, 0}] = loc
	}
	for s, loc := range l.masterLoc {
		out[recordKey{kindMasterCapture, s, 0}] = loc
	}
	for kind, locs := range map[recordKind]map[int]map[pregel.VertexID]recordLoc{
		kindVertexCapture:   l.vertexLoc,
		kindSubgraphCapture: l.subgraphLoc,
	} {
		for s, m := range locs {
			for id, loc := range m {
				out[recordKey{kind, s, id}] = loc
			}
		}
	}
	return out
}

// scanSegmentEntries walks a segment's frames and synthesizes index
// entries, decoding only each record's envelope (kind, superstep,
// vertex ID).
func scanSegmentEntries(data []byte) ([]indexEntry, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, ErrBadMagic
	}
	var ents []indexEntry
	off := len(segMagic)
	for off < len(data) {
		d := pregel.NewDecoder(data[off:])
		payload := d.Bytes()
		if d.Err() != nil {
			return nil, d.Err()
		}
		off = len(data) - d.Remaining() // frame end
		payloadOff := off - len(payload)
		pd := pregel.NewDecoder(payload)
		ent := indexEntry{
			Kind:      recordKind(pd.Uvarint()),
			Superstep: int(pd.Uvarint()),
			Offset:    payloadOff,
			Length:    len(payload),
		}
		if ent.Kind == kindVertexCapture || ent.Kind == kindSubgraphCapture {
			pd.Uvarint() // worker
			ent.VertexID = pregel.VertexID(pd.Varint())
		}
		if pd.Err() != nil {
			return nil, pd.Err()
		}
		ents = append(ents, ent)
	}
	return ents, nil
}

// segmentBytes returns a segment's contents through the bounded cache.
func (r *Reader) segmentBytes(name string) ([]byte, error) {
	r.mu.Lock()
	if b, ok := r.cache[name]; ok {
		r.mu.Unlock()
		return b, nil
	}
	r.mu.Unlock()
	raw, err := dfs.ReadFile(r.store.FS, r.dir+"/"+name)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(segMagic) || string(raw[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("trace: %s: %w", name, ErrBadMagic)
	}
	r.segReads.Add(1)
	r.mu.Lock()
	if _, ok := r.cache[name]; !ok {
		r.cache[name] = raw
		r.cacheOrder = append(r.cacheOrder, name)
		r.cacheBytes += len(raw)
		for r.cacheBytes > r.cacheLimit && len(r.cacheOrder) > 1 {
			old := r.cacheOrder[0]
			r.cacheOrder = r.cacheOrder[1:]
			r.cacheBytes -= len(r.cache[old])
			delete(r.cache, old)
		}
	}
	r.mu.Unlock()
	return raw, nil
}

// record fetches and decodes the record at loc, recording (not
// returning) errors so View accessors can stay nil-on-missing.
func (r *Reader) record(loc recordLoc) any {
	seg, err := r.segmentBytes(loc.seg)
	if err != nil {
		r.setErr(err)
		return nil
	}
	// Written as ln > len-off so a huge ln cannot overflow off+ln.
	if loc.off < 0 || loc.ln < 0 || loc.off > len(seg) || loc.ln > len(seg)-loc.off {
		r.setErr(fmt.Errorf("trace: index entry %v out of range (segment is %d bytes)", loc, len(seg)))
		return nil
	}
	rec, err := decodeRecordPayload(seg[loc.off : loc.off+loc.ln])
	if err != nil {
		r.setErr(fmt.Errorf("trace: %s: %w", loc.seg, err))
		return nil
	}
	return rec
}

func (r *Reader) setErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Err returns the first segment read or decode failure encountered by
// the nil-on-missing View accessors.
func (r *Reader) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Verify reads the whole trace once, sequentially, and checks it
// against its index: it rescans every segment, places the records it
// finds last-record-wins, and requires each record's byte location to
// equal the one loaded from the index sidecars. It also decodes every
// record. It returns the first mismatch or decode error. Segments carry
// no checksum, so a changed byte inside a value that still decodes is
// not detected.
func (r *Reader) Verify() error {
	scan := newLocations()
	for _, name := range r.segOrder {
		raw, err := r.segmentBytes(name)
		if err != nil {
			return err
		}
		ents, err := scanSegmentEntries(raw)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", name, err)
		}
		for _, ent := range ents {
			scan.place(ent, name)
			if _, err := decodeRecordPayload(raw[ent.Offset : ent.Offset+ent.Length]); err != nil {
				return fmt.Errorf("trace: %s: record at offset %d: %w", name, ent.Offset, err)
			}
		}
	}
	indexed, scanned := r.locations.flat(), scan.flat()
	for k, loc := range scanned {
		got, ok := indexed[k]
		if !ok {
			return fmt.Errorf("trace: record %+v at %v is missing from the index", k, loc)
		}
		if got != loc {
			return fmt.Errorf("trace: record %+v: index says %v, segments say %v", k, got, loc)
		}
	}
	for k, loc := range indexed {
		if _, ok := scanned[k]; !ok {
			return fmt.Errorf("trace: record %+v: index says %v, no segment holds it", k, loc)
		}
	}
	return nil
}

// SegmentReads returns how many segment files have been fetched from
// storage (cache misses): what the single-segment-lookup acceptance
// check measures.
func (r *Reader) SegmentReads() int64 { return r.segReads.Load() }

// JobMeta implements View.
func (r *Reader) JobMeta() JobMeta { return r.meta }

// JobResult implements View.
func (r *Reader) JobResult() *JobResult {
	return r.res
}

// Supersteps implements View.
func (r *Reader) Supersteps() []int {
	return r.steps
}

// MaxSuperstep implements View.
func (r *Reader) MaxSuperstep() int {
	if len(r.steps) == 0 {
		return -1
	}
	return r.steps[len(r.steps)-1]
}

// MetaAt implements View.
func (r *Reader) MetaAt(superstep int) *SuperstepMeta {
	loc, ok := r.metaLoc[superstep]
	if !ok {
		return nil
	}
	m, _ := r.record(loc).(*SuperstepMeta)
	return m
}

// MasterAt implements View.
func (r *Reader) MasterAt(superstep int) *MasterCapture {
	loc, ok := r.masterLoc[superstep]
	if !ok {
		return nil
	}
	c, _ := r.record(loc).(*MasterCapture)
	return c
}

// Capture implements View: one index lookup, one segment fetch.
func (r *Reader) Capture(superstep int, id pregel.VertexID) *VertexCapture {
	loc, ok := r.vertexLoc[superstep][id]
	if !ok {
		return nil
	}
	c, _ := r.record(loc).(*VertexCapture)
	return c
}

// CapturesAt implements View.
func (r *Reader) CapturesAt(superstep int) []*VertexCapture {
	m := r.vertexLoc[superstep]
	out := make([]*VertexCapture, 0, len(m))
	for _, loc := range m {
		if c, _ := r.record(loc).(*VertexCapture); c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CapturesOf implements View.
func (r *Reader) CapturesOf(id pregel.VertexID) []*VertexCapture {
	var out []*VertexCapture
	for _, m := range r.vertexLoc {
		if loc, ok := m[id]; ok {
			if c, _ := r.record(loc).(*VertexCapture); c != nil {
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Superstep < out[j].Superstep })
	return out
}

// CapturedVertexIDs implements View, answered from the index alone.
func (r *Reader) CapturedVertexIDs() []pregel.VertexID {
	seen := map[pregel.VertexID]bool{}
	for _, m := range r.vertexLoc {
		for id := range m {
			seen[id] = true
		}
	}
	out := make([]pregel.VertexID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalCaptures implements View, answered from the index alone.
func (r *Reader) TotalCaptures() int64 {
	var n int64
	for _, m := range r.vertexLoc {
		n += int64(len(m))
	}
	return n
}

// ViolationsAt implements View.
func (r *Reader) ViolationsAt(superstep int) []ViolationRow {
	return violationRows(superstep, r.CapturesAt(superstep))
}

// AllViolations implements View.
func (r *Reader) AllViolations() []ViolationRow {
	var rows []ViolationRow
	for _, s := range r.steps {
		rows = append(rows, r.ViolationsAt(s)...)
	}
	return rows
}

// StatusAt implements View.
func (r *Reader) StatusAt(superstep int) Status {
	return statusOf(r.CapturesAt(superstep))
}

// SubgraphsAt implements View.
func (r *Reader) SubgraphsAt(superstep int) []*SubgraphCapture {
	m := r.subgraphLoc[superstep]
	out := make([]*SubgraphCapture, 0, len(m))
	for _, loc := range m {
		if c, _ := r.record(loc).(*SubgraphCapture); c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SubgraphAt implements View. The index is keyed by subgraph ID, so a
// non-ID member costs a scan of the superstep's subgraph captures.
func (r *Reader) SubgraphAt(superstep int, id pregel.VertexID) *SubgraphCapture {
	if loc, ok := r.subgraphLoc[superstep][id]; ok {
		if c, _ := r.record(loc).(*SubgraphCapture); c != nil {
			return c
		}
	}
	return findMemberSubgraph(r.SubgraphsAt(superstep), id)
}

// Search implements View.
func (r *Reader) Search(q Query) []*VertexCapture {
	var out []*VertexCapture
	steps := r.steps
	if q.Superstep >= 0 {
		steps = []int{q.Superstep}
	}
	for _, s := range steps {
		for _, c := range r.CapturesAt(s) {
			if q.matches(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

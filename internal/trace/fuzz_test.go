package trace

import (
	"reflect"
	"strings"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// sinkJobFiles writes a small job with one record of every kind
// through a Sink and returns the contents of its files whose names end
// in suffix: the seed corpus for the decoder fuzz targets.
func sinkJobFiles(f *testing.F, suffix string) [][]byte {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	writeRecords(f, store, JobMeta{JobID: "seed", NumWorkers: 3}, JobResult{},
		sampleMeta(), sampleVertexCapture(), sampleMasterCapture(), sampleSubgraphCapture())
	names, err := fs.List("t/seed/")
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, name := range names {
		if strings.HasSuffix(name, suffix) {
			raw, err := dfs.ReadFile(fs, name)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, raw)
		}
	}
	if len(out) == 0 {
		f.Fatalf("no %s files in the seed job", suffix)
	}
	return out
}

// FuzzDecodeIndex: any input either fails to decode or decodes to an
// index that survives a re-encode unchanged.
func FuzzDecodeIndex(f *testing.F) {
	for _, raw := range sinkJobFiles(f, ".idx") {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		segs, err := decodeIndex(raw)
		if err != nil {
			return
		}
		again, err := decodeIndex(encodeIndex(segs))
		if err != nil {
			t.Fatalf("re-encoded index does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, segs) {
			t.Fatalf("re-encoded index changed: %+v vs %+v", again, segs)
		}
	})
}

// FuzzScanSegment: scanning any input either fails or yields entries
// inside the input, and every payload those entries locate either
// fails to decode or decodes to a record that re-encodes and decodes
// again.
func FuzzScanSegment(f *testing.F) {
	for _, raw := range sinkJobFiles(f, ".seg") {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ents, err := scanSegmentEntries(raw)
		if err != nil {
			return
		}
		for _, ent := range ents {
			if ent.Offset < len(segMagic) || ent.Length < 0 || ent.Offset+ent.Length > len(raw) {
				t.Fatalf("entry %+v outside a %d-byte segment", ent, len(raw))
			}
			rec, err := decodeRecordPayload(raw[ent.Offset : ent.Offset+ent.Length])
			if err != nil {
				continue
			}
			e := pregel.NewEncoder()
			if err := encodeRecordPayload(e, rec); err != nil {
				t.Fatalf("decoded %T does not encode: %v", rec, err)
			}
			if _, err := decodeRecordPayload(e.Bytes()); err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", rec, err)
			}
		}
	})
}

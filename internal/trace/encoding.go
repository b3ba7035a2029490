package trace

import (
	"errors"
	"fmt"
	"sort"

	"graft/internal/pregel"
)

// A trace record is framed inside a segment file (see segment.go) as
// uvarint(length) ++ payload, where the payload starts with the
// uvarint record kind.
type recordKind uint8

const (
	kindSuperstepMeta   recordKind = 1
	kindVertexCapture   recordKind = 2
	kindMasterCapture   recordKind = 3
	kindSubgraphCapture recordKind = 4
)

// ErrBadMagic is returned when a segment or index file does not start
// with the expected header.
var ErrBadMagic = errors.New("trace: bad file magic")

// encodeRecordPayload appends the payload of rec (kind first) to e.
func encodeRecordPayload(e *pregel.Encoder, rec any) error {
	switch r := rec.(type) {
	case *VertexCapture:
		encodeVertexCapturePayload(e, r)
	case *MasterCapture:
		encodeMasterCapturePayload(e, r)
	case *SuperstepMeta:
		encodeSuperstepMetaPayload(e, r)
	case *SubgraphCapture:
		encodeSubgraphCapturePayload(e, r)
	default:
		return fmt.Errorf("trace: cannot encode record type %T", rec)
	}
	return nil
}

func encodeVertexCapturePayload(e *pregel.Encoder, c *VertexCapture) {
	e.PutUvarint(uint64(kindVertexCapture))
	e.PutUvarint(uint64(c.Superstep))
	e.PutUvarint(uint64(c.Worker))
	e.PutVarint(int64(c.ID))
	e.PutUvarint(uint64(c.Reasons))
	pregel.EncodeTyped(e, c.ValueBefore)
	pregel.EncodeTyped(e, c.ValueAfter)
	e.PutBool(c.EdgesPreCompute)
	e.PutUvarint(uint64(len(c.Edges)))
	for _, ed := range c.Edges {
		e.PutVarint(int64(ed.Target))
		pregel.EncodeTyped(e, ed.Value)
	}
	e.PutUvarint(uint64(len(c.Incoming)))
	for _, m := range c.Incoming {
		pregel.EncodeTyped(e, m)
	}
	e.PutUvarint(uint64(len(c.Outgoing)))
	for _, m := range c.Outgoing {
		e.PutVarint(int64(m.To))
		pregel.EncodeTyped(e, m.Value)
	}
	e.PutBool(c.HaltedAfter)
	e.PutUvarint(uint64(len(c.Violations)))
	for _, v := range c.Violations {
		e.PutUvarint(uint64(v.Kind))
		e.PutVarint(int64(v.SrcID))
		e.PutVarint(int64(v.DstID))
		pregel.EncodeTyped(e, v.Value)
	}
	encodeException(e, c.Exception)
}

func encodeMasterCapturePayload(e *pregel.Encoder, c *MasterCapture) {
	e.PutUvarint(uint64(kindMasterCapture))
	e.PutUvarint(uint64(c.Superstep))
	e.PutVarint(c.NumVertices)
	e.PutVarint(c.NumEdges)
	encodeAggMap(e, c.AggregatedBefore)
	encodeAggMap(e, c.AggregatedAfter)
	e.PutUvarint(uint64(len(c.Sets)))
	for _, s := range c.Sets {
		e.PutString(s.Name)
		pregel.EncodeTyped(e, s.Value)
	}
	e.PutBool(c.Halted)
	encodeException(e, c.Exception)
}

// encodeSubgraphCapturePayload shares VertexCapture's envelope prefix
// (kind, superstep, worker, id) so index scans extract coordinates the
// same way for both capture kinds.
func encodeSubgraphCapturePayload(e *pregel.Encoder, c *SubgraphCapture) {
	e.PutUvarint(uint64(kindSubgraphCapture))
	e.PutUvarint(uint64(c.Superstep))
	e.PutUvarint(uint64(c.Worker))
	e.PutVarint(int64(c.ID))
	e.PutUvarint(uint64(len(c.Members)))
	for _, id := range c.Members {
		e.PutVarint(int64(id))
	}
	e.PutVarint(c.Iterations)
	e.PutVarint(c.MessagesSent)
	e.PutBool(c.HaltedAfter)
	e.PutString(c.Digest)
}

func encodeSuperstepMetaPayload(e *pregel.Encoder, m *SuperstepMeta) {
	e.PutUvarint(uint64(kindSuperstepMeta))
	e.PutUvarint(uint64(m.Superstep))
	e.PutVarint(m.NumVertices)
	e.PutVarint(m.NumEdges)
	encodeAggMap(e, m.Aggregated)
}

// decodeRecordPayload decodes one payload (kind first) into a
// *VertexCapture, *MasterCapture, *SuperstepMeta or *SubgraphCapture.
func decodeRecordPayload(payload []byte) (any, error) {
	pd := pregel.NewDecoder(payload)
	kind := recordKind(pd.Uvarint())
	switch kind {
	case kindVertexCapture:
		return decodeVertexCapture(pd)
	case kindMasterCapture:
		return decodeMasterCapture(pd)
	case kindSuperstepMeta:
		return decodeSuperstepMeta(pd)
	case kindSubgraphCapture:
		return decodeSubgraphCapture(pd)
	}
	if pd.Err() != nil {
		return nil, pd.Err()
	}
	return nil, fmt.Errorf("trace: unknown record kind %d", kind)
}

// readCount reads an element count bounded by the bytes left (see
// pregel.Decoder.Count), so a corrupt count fails the decode instead
// of sizing an allocation.
func readCount(d *pregel.Decoder) (uint64, error) {
	n := d.Count()
	return uint64(n), d.Err()
}

func encodeException(e *pregel.Encoder, ex *ExceptionInfo) {
	if ex == nil {
		e.PutBool(false)
		return
	}
	e.PutBool(true)
	e.PutString(ex.Message)
	e.PutString(ex.Stack)
}

func decodeException(d *pregel.Decoder) (*ExceptionInfo, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	ex := &ExceptionInfo{Message: d.String(), Stack: d.String()}
	return ex, d.Err()
}

func encodeAggMap(e *pregel.Encoder, m map[string]pregel.Value) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic bytes
	e.PutUvarint(uint64(len(names)))
	for _, name := range names {
		e.PutString(name)
		pregel.EncodeTyped(e, m[name])
	}
}

func decodeAggMap(d *pregel.Decoder) (map[string]pregel.Value, error) {
	n, err := readCount(d)
	if err != nil {
		return nil, err
	}
	m := make(map[string]pregel.Value, n)
	for i := uint64(0); i < n; i++ {
		name := d.String()
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		m[name] = v
	}
	return m, d.Err()
}

func decodeVertexCapture(d *pregel.Decoder) (*VertexCapture, error) {
	c := &VertexCapture{}
	c.Superstep = int(d.Uvarint())
	c.Worker = int(d.Uvarint())
	c.ID = pregel.VertexID(d.Varint())
	c.Reasons = Reason(d.Uvarint())
	var err error
	if c.ValueBefore, err = pregel.DecodeTyped(d); err != nil {
		return nil, err
	}
	if c.ValueAfter, err = pregel.DecodeTyped(d); err != nil {
		return nil, err
	}
	c.EdgesPreCompute = d.Bool()
	nEdges, err := readCount(d)
	if err != nil {
		return nil, err
	}
	c.Edges = make([]pregel.Edge, 0, nEdges)
	for i := uint64(0); i < nEdges; i++ {
		target := pregel.VertexID(d.Varint())
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		c.Edges = append(c.Edges, pregel.Edge{Target: target, Value: v})
	}
	nIn, err := readCount(d)
	if err != nil {
		return nil, err
	}
	c.Incoming = make([]pregel.Value, 0, nIn)
	for i := uint64(0); i < nIn; i++ {
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		c.Incoming = append(c.Incoming, v)
	}
	nOut, err := readCount(d)
	if err != nil {
		return nil, err
	}
	c.Outgoing = make([]OutMsg, 0, nOut)
	for i := uint64(0); i < nOut; i++ {
		to := pregel.VertexID(d.Varint())
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		c.Outgoing = append(c.Outgoing, OutMsg{To: to, Value: v})
	}
	c.HaltedAfter = d.Bool()
	nViol, err := readCount(d)
	if err != nil {
		return nil, err
	}
	c.Violations = make([]Violation, 0, nViol)
	for i := uint64(0); i < nViol; i++ {
		viol := Violation{
			Kind:  ViolationKind(d.Uvarint()),
			SrcID: pregel.VertexID(d.Varint()),
			DstID: pregel.VertexID(d.Varint()),
		}
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		viol.Value = v
		c.Violations = append(c.Violations, viol)
	}
	if c.Exception, err = decodeException(d); err != nil {
		return nil, err
	}
	return c, d.Err()
}

func decodeMasterCapture(d *pregel.Decoder) (*MasterCapture, error) {
	c := &MasterCapture{}
	c.Superstep = int(d.Uvarint())
	c.NumVertices = d.Varint()
	c.NumEdges = d.Varint()
	var err error
	if c.AggregatedBefore, err = decodeAggMap(d); err != nil {
		return nil, err
	}
	if c.AggregatedAfter, err = decodeAggMap(d); err != nil {
		return nil, err
	}
	nSets, err := readCount(d)
	if err != nil {
		return nil, err
	}
	c.Sets = make([]AggSet, 0, nSets)
	for i := uint64(0); i < nSets; i++ {
		name := d.String()
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		c.Sets = append(c.Sets, AggSet{Name: name, Value: v})
	}
	c.Halted = d.Bool()
	if c.Exception, err = decodeException(d); err != nil {
		return nil, err
	}
	return c, d.Err()
}

func decodeSubgraphCapture(d *pregel.Decoder) (*SubgraphCapture, error) {
	c := &SubgraphCapture{}
	c.Superstep = int(d.Uvarint())
	c.Worker = int(d.Uvarint())
	c.ID = pregel.VertexID(d.Varint())
	n, err := readCount(d)
	if err != nil {
		return nil, err
	}
	c.Members = make([]pregel.VertexID, 0, n)
	for i := uint64(0); i < n; i++ {
		c.Members = append(c.Members, pregel.VertexID(d.Varint()))
	}
	c.Iterations = d.Varint()
	c.MessagesSent = d.Varint()
	c.HaltedAfter = d.Bool()
	c.Digest = d.String()
	return c, d.Err()
}

func decodeSuperstepMeta(d *pregel.Decoder) (*SuperstepMeta, error) {
	m := &SuperstepMeta{}
	m.Superstep = int(d.Uvarint())
	m.NumVertices = d.Varint()
	m.NumEdges = d.Varint()
	var err error
	if m.Aggregated, err = decodeAggMap(d); err != nil {
		return nil, err
	}
	return m, d.Err()
}

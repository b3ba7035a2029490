package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoder is an append-only binary encoder used for values, messages,
// trace records and checkpoints. It mirrors the role of Hadoop's
// DataOutput in Giraph's Writable framework.
//
// Integers are varint-encoded (zig-zag for signed), floats are fixed
// 8-byte little-endian, and byte slices and strings are length-prefixed.
type Encoder struct {
	b []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer. The slice is owned by the encoder
// and is invalidated by further Put calls or Reset.
func (e *Encoder) Bytes() []byte { return e.b }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.b) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.b = e.b[:0] }

// PutUvarint appends an unsigned varint.
func (e *Encoder) PutUvarint(x uint64) {
	e.b = binary.AppendUvarint(e.b, x)
}

// PutVarint appends a zig-zag signed varint.
func (e *Encoder) PutVarint(x int64) {
	e.b = binary.AppendVarint(e.b, x)
}

// PutBool appends one byte: 1 for true, 0 for false.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// PutFloat64 appends a fixed 8-byte IEEE-754 value.
func (e *Encoder) PutFloat64(f float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
}

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(p []byte) {
	e.PutUvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// PutRaw appends bytes verbatim, without a length prefix.
func (e *Encoder) PutRaw(p []byte) {
	e.b = append(e.b, p...)
}

// ErrCorrupt is returned when a decoder runs out of input or reads a
// malformed varint or length prefix.
var ErrCorrupt = errors.New("pregel: corrupt encoding")

// Decoder reads values produced by Encoder. Errors are sticky: after
// the first failure every read returns the zero value and Err reports
// the failure, so call sites can decode a whole record and check once.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a decoder over b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

func (d *Decoder) fail(context string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, context, d.off)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return x
}

// Count reads an element count and fails the decode when the count
// exceeds the bytes left (every element takes at least one byte), so a
// corrupt count can neither size an allocation nor wrap negative. It
// returns 0 after a failure.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Sprintf("count %d exceeds the %d bytes left", n, d.Remaining()))
		return 0
	}
	return int(n)
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return x
}

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("bool")
		return false
	}
	v := d.b[d.off] != 0
	d.off++
	return v
}

// Float64 reads a fixed 8-byte IEEE-754 value.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Bytes reads a length-prefixed byte slice. The returned slice aliases
// the decoder's input.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("bytes length")
		return nil
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

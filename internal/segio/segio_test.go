package segio

import (
	"encoding/binary"
	"errors"
	"testing"
)

// TestDecodeIndexRejectsCorrupt feeds counts far larger than the input
// and a truncated index: the decoder must report corruption rather
// than size an allocation from a count (which panics with "makeslice:
// cap out of range") or read past the end.
func TestDecodeIndexRejectsCorrupt(t *testing.T) {
	segCount := binary.AppendUvarint([]byte(IdxMagic), 1<<62)

	entCount := binary.AppendUvarint([]byte(IdxMagic), 1)
	entCount = binary.AppendUvarint(entCount, 1)
	entCount = append(entCount, 'a')
	entCount = binary.AppendUvarint(entCount, 1<<62)

	full := EncodeIndex([]SegmentIndex{{Name: "s", Entries: []Entry{{Kind: 1, Offset: 8, Length: 3}}}})
	if _, err := DecodeIndex(full); err != nil {
		t.Fatal(err)
	}

	for name, raw := range map[string][]byte{
		"segment count": segCount,
		"entry count":   entCount,
		"truncated":     full[:len(full)-1],
	} {
		if _, err := DecodeIndex(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

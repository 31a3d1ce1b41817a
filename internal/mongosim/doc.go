// Package mongosim implements a MongoDB-like document store with two
// pluggable storage engines that reproduce the mechanisms behind the
// paper's demonstration workload: "wiredtiger" (document-level locking,
// block compression, bounded cache) and "mmapv1" (collection-level
// locking, in-place updates with power-of-2 padding, no compression).
//
// The paper evaluates a real MongoDB; this simulator is the offline
// substitute. What matters for the reproduction is not absolute
// throughput but the *relative* behaviour of the two engines: wiredTiger
// scales with concurrent writers while mmapv1 serialises them, and mmapv1
// avoids compression overhead on single-threaded and read-only loads.
// Both engines here implement exactly those mechanisms with real work
// (real locks, real flate compression, real copying), so the measured
// shapes transfer.
//
// The store keeps only what an evaluation does with it: YCSB-style
// reads, inserts, updates, read-modify-writes and scans over documents
// of string fields. Nothing is ever deleted. An update merges its fields
// into the stored encoding in one pass (Collection.UpdateOne), so what
// an update costs beyond the engine's own work is one copy of the
// document.
package mongosim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Document is a flat record of string fields, the unit of storage: the
// _id and the workload's generated field values.
type Document map[string]string

// IDField is the reserved primary-key field, like MongoDB's _id.
const IDField = "_id"

// ID returns the document's _id, or "" when absent.
func (d Document) ID() string { return d[IDField] }

// Clone returns a copy of the document.
func (d Document) Clone() Document { return maps.Clone(d) }

// tagString marks a string value in the binary codec. It is the only
// value tag: the byte stays so the stored layout — and with it
// compression ratios and mmapv1 record sizes — is BSON-like.
const tagString byte = 1

// Encode serialises the document into the compact binary format the
// engines store (a BSON-like layout: field count, then each field's
// length-prefixed name, the string tag and the length-prefixed value,
// sorted by name for determinism).
func Encode(d Document) []byte {
	var buf [smallDoc]kv
	return encodeMerged(nil, sortedFields(d, buf[:0]))
}

// patchEncoded overlays patch's fields on the document encoded in old and
// returns the result's encoding, without decoding old into a map: byte
// for byte Encode of Decode(old) with patch's fields copied over it. It
// fails exactly where Decode(old) fails, with Decode's error.
func patchEncoded(old []byte, patch Document) ([]byte, error) {
	var fbuf [smallDoc]span
	fields, err := decodeSpans(old, fbuf[:0])
	if err != nil {
		return nil, err
	}
	var pbuf [smallDoc]kv
	return encodeMerged(fields, sortedFields(patch, pbuf[:0])), nil
}

// smallDoc is the field count up to which the codec sorts and merges in
// stack arrays: a workload record is an _id and ten fields.
const smallDoc = 16

// kv is one field of a Document.
type kv struct{ key, val string }

// span is one field of an encoded document, as views into the encoding.
type span struct{ key, val []byte }

// sortedFields appends d's fields to buf in name order.
func sortedFields(d Document, buf []kv) []kv {
	for k, v := range d {
		buf = append(buf, kv{k, v})
	}
	slices.SortFunc(buf, func(a, b kv) int { return strings.Compare(a.key, b.key) })
	return buf
}

// decodeSpans parses an encoded document into buf, one span per field in
// name order; a name that occurs more than once keeps its last value, as
// Decode's map does. It refuses exactly what Decode refuses.
func decodeSpans(data []byte, buf []span) ([]span, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	sorted := true
	for i := uint64(0); i < n; i++ {
		var f span
		if f.key, f.val, data, err = readField(data); err != nil {
			return nil, err
		}
		if len(buf) > 0 && bytes.Compare(buf[len(buf)-1].key, f.key) >= 0 {
			sorted = false
		}
		buf = append(buf, f)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("mongosim: %d trailing bytes after document", len(data))
	}
	if sorted {
		return buf, nil
	}
	// Only an encoding Encode did not write lands here.
	slices.SortStableFunc(buf, func(a, b span) int { return bytes.Compare(a.key, b.key) })
	out := buf[:0]
	for i, f := range buf {
		if i+1 < len(buf) && bytes.Equal(f.key, buf[i+1].key) {
			continue
		}
		out = append(out, f)
	}
	return out, nil
}

// encodeMerged encodes the union of two name-ordered field lists, a name
// in both taking patch's value: the stored fields of a document and the
// fields an update sets. The buffer is sized before it is written.
func encodeMerged(stored []span, patch []kv) []byte {
	count, size := 0, 0
	mergeWalk(stored, patch, func(i, j int) {
		count++
		if i >= 0 {
			size += fieldSize(stored[i].key, stored[i].val)
		} else {
			size += fieldSize(patch[j].key, patch[j].val)
		}
	})
	buf := make([]byte, 0, uvarintLen(count)+size)
	buf = binary.AppendUvarint(buf, uint64(count))
	mergeWalk(stored, patch, func(i, j int) {
		if i >= 0 {
			buf = appendField(buf, stored[i].key, stored[i].val)
		} else {
			buf = appendField(buf, patch[j].key, patch[j].val)
		}
	})
	return buf
}

// mergeWalk calls visit for each field of the union in name order: (i, -1)
// for stored[i], (-1, j) for patch[j]. A stored field patch also names is
// skipped.
func mergeWalk(stored []span, patch []kv, visit func(i, j int)) {
	i, j := 0, 0
	for i < len(stored) || j < len(patch) {
		switch {
		case j == len(patch) || i < len(stored) && string(stored[i].key) < patch[j].key:
			visit(i, -1)
			i++
		case i < len(stored) && string(stored[i].key) == patch[j].key:
			i++
		default:
			visit(-1, j)
			j++
		}
	}
}

// fieldSize is the encoded length of one field.
func fieldSize[S string | []byte](key, val S) int {
	return uvarintLen(len(key)) + len(key) + 1 + uvarintLen(len(val)) + len(val)
}

func uvarintLen(n int) int {
	size := 1
	for ; n >= 0x80; n >>= 7 {
		size++
	}
	return size
}

func appendField[S string | []byte](buf []byte, key, val S) []byte {
	buf = appendString(buf, key)
	buf = append(buf, tagString)
	return appendString(buf, val)
}

func appendString[S string | []byte](buf []byte, s S) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Decode parses a document encoded by Encode. It rejects truncated input,
// any value tag but the string tag, and trailing bytes.
func Decode(data []byte) (Document, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	d := make(Document, min(n, uint64(len(data))))
	for i := uint64(0); i < n; i++ {
		var key, val []byte
		if key, val, data, err = readField(data); err != nil {
			return nil, err
		}
		d[string(key)] = string(val)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("mongosim: %d trailing bytes after document", len(data))
	}
	return d, nil
}

// readField reads one field: its name, the string tag and its value.
func readField(data []byte) (key, val, rest []byte, err error) {
	if key, data, err = readString(data); err != nil {
		return nil, nil, nil, err
	}
	if len(data) == 0 {
		return nil, nil, nil, fmt.Errorf("mongosim: field %q: missing value tag", key)
	}
	if data[0] != tagString {
		return nil, nil, nil, fmt.Errorf("mongosim: field %q: unknown value tag %d", key, data[0])
	}
	if val, data, err = readString(data[1:]); err != nil {
		return nil, nil, nil, fmt.Errorf("mongosim: field %q: %w", key, err)
	}
	return key, val, data, nil
}

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("mongosim: truncated varint")
	}
	return v, data[n:], nil
}

func readString(data []byte) ([]byte, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(data)) < n {
		return nil, nil, fmt.Errorf("mongosim: truncated string")
	}
	return data[:n], data[n:], nil
}

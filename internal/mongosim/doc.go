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
// of string fields. Nothing is ever deleted.
package mongosim

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
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

// Merge overlays the fields of patch onto a copy of d and returns it.
func (d Document) Merge(patch Document) Document {
	out := make(Document, len(d)+len(patch))
	maps.Copy(out, d)
	maps.Copy(out, patch)
	return out
}

// tagString marks a string value in the binary codec. It is the only
// value tag: the byte stays so the stored layout — and with it
// compression ratios and mmapv1 record sizes — is BSON-like.
const tagString byte = 1

// Encode serialises the document into the compact binary format the
// engines store (a BSON-like layout: field count, then each field's
// length-prefixed name, the string tag and the length-prefixed value,
// sorted by name for determinism).
func Encode(d Document) []byte {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := binary.AppendUvarint(nil, uint64(len(d)))
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = append(buf, tagString)
		buf = appendString(buf, d[k])
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
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
		var key, val string
		if key, data, err = readString(data); err != nil {
			return nil, err
		}
		if len(data) == 0 {
			return nil, fmt.Errorf("mongosim: field %q: missing value tag", key)
		}
		if data[0] != tagString {
			return nil, fmt.Errorf("mongosim: field %q: unknown value tag %d", key, data[0])
		}
		if val, data, err = readString(data[1:]); err != nil {
			return nil, fmt.Errorf("mongosim: field %q: %w", key, err)
		}
		d[key] = val
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("mongosim: %d trailing bytes after document", len(data))
	}
	return d, nil
}

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("mongosim: truncated varint")
	}
	return v, data[n:], nil
}

func readString(data []byte) (string, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(data)) < n {
		return "", nil, fmt.Errorf("mongosim: truncated string")
	}
	return string(data[:n]), data[n:], nil
}

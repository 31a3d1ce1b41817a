package relstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// This file implements the binary row codec: the one on-disk form of a
// row, in WAL frames and in snapshots.
//
// A row encodes as:
//
//	uint32 little-endian schema hash (see schemaHash)
//	uvarint field count
//	per present field, in schema column order:
//	  uvarint name length, name bytes
//	  1 tag byte (binNull..binTime)
//	  tag-specific value bytes
//
// Field names make the format self-describing: a row encoded under an
// older compatible schema (fewer columns) decodes correctly against the
// upgraded one — which matters because a snapshot can carry a newer
// schema than WAL rows replayed over it. The schema hash versions the
// layout without being a decode precondition: when it matches the
// decoder's schema the sequential-match fast path resolves every field
// name in O(1), when it differs (upgrade window) decoding falls back to
// a name lookup.
//
// Value encodings are lossless: floats travel as raw IEEE-754 bits (NaN
// and -0.0 survive), times as (seconds, nanoseconds) pairs (no UnixNano
// overflow for pre-1678/post-2262 instants), bytes raw.

// Value tag bytes. The tag describes the wire form of the value that
// follows, so a reader can skip or validate a row without any schema.
const (
	binNull   = 0 // no value bytes (absent column)
	binInt    = 1 // zigzag varint
	binFloat  = 2 // 8 bytes, IEEE-754 bits little-endian
	binString = 3 // uvarint length + raw bytes
	binFalse  = 4 // no value bytes
	binTrue   = 5 // no value bytes
	binBytes  = 6 // uvarint length + raw bytes
	binTime   = 7 // zigzag varint unix seconds + uvarint nanoseconds
)

// rowCodec encodes and decodes rows for one schema version. A codec is
// immutable; tables cache one and rebuild it on schema upgrade.
type rowCodec struct {
	schema Schema
	hash   uint32
}

// schemaHash fingerprints the row layout of a schema: the key name plus
// every (column name, type) pair in declaration order. Index flags and
// nullability do not change how a row encodes, so they are excluded —
// an index-only upgrade keeps the hash stable.
func schemaHash(s Schema) uint32 {
	h := crc32.NewIEEE()
	h.Write([]byte(s.Key))
	h.Write([]byte{0})
	for _, c := range s.Columns {
		h.Write([]byte(c.Name))
		h.Write([]byte{1})
		h.Write([]byte(c.Type))
		h.Write([]byte{0})
	}
	return h.Sum32()
}

func newRowCodec(s Schema) rowCodec {
	return rowCodec{schema: s, hash: schemaHash(s)}
}

// appendRow appends the binary encoding of a validated row to dst and
// returns the extended slice. The row must have passed Schema.validate
// (commit does this before buffering); a value of an unexpected dynamic
// type is reported rather than silently mis-tagged.
func (c *rowCodec) appendRow(dst []byte, r Row) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, c.hash)
	n := 0
	for i := range c.schema.Columns {
		if _, ok := r[c.schema.Columns[i].Name]; ok {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := range c.schema.Columns {
		name := c.schema.Columns[i].Name
		v, ok := r[name]
		if !ok {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		switch x := v.(type) {
		case int64:
			dst = append(dst, binInt)
			dst = binary.AppendVarint(dst, x)
		case float64:
			dst = append(dst, binFloat)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		case string:
			dst = append(dst, binString)
			dst = binary.AppendUvarint(dst, uint64(len(x)))
			dst = append(dst, x...)
		case bool:
			if x {
				dst = append(dst, binTrue)
			} else {
				dst = append(dst, binFalse)
			}
		case []byte:
			dst = append(dst, binBytes)
			dst = binary.AppendUvarint(dst, uint64(len(x)))
			dst = append(dst, x...)
		case time.Time:
			dst = append(dst, binTime)
			dst = binary.AppendVarint(dst, x.Unix())
			dst = binary.AppendUvarint(dst, uint64(x.Nanosecond()))
		default:
			return nil, fmt.Errorf("relstore: table %q column %q: cannot binary-encode %T", c.schema.Name, name, v)
		}
	}
	return dst, nil
}

// decodeRow parses a binary row into its typed form. String and byte
// values are copied out of b, so the caller's buffer may be reused. A
// hash mismatch is not an error by itself — rows written under an older
// compatible schema replay against the upgraded one — but every field
// name must resolve to a declared column and every tag must match the
// column's type.
func (c *rowCodec) decodeRow(b []byte) (Row, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("relstore: table %q: short binary row", c.schema.Name)
	}
	b = b[4:] // schema hash: versioning metadata, not a decode precondition
	nf, n := binary.Uvarint(b)
	if n <= 0 || nf > uint64(len(c.schema.Columns)) {
		return nil, fmt.Errorf("relstore: table %q: bad binary row field count", c.schema.Name)
	}
	b = b[n:]
	row := make(Row, nf)
	next := 0 // sequential-match cursor: fields arrive in schema order
	for i := uint64(0); i < nf; i++ {
		name, rest, err := readLenBytes(b)
		if err != nil {
			return nil, fmt.Errorf("relstore: table %q: binary row field name: %w", c.schema.Name, err)
		}
		b = rest
		col := -1
		if next < len(c.schema.Columns) && c.schema.Columns[next].Name == string(name) {
			col = next
		} else {
			for j := range c.schema.Columns {
				if c.schema.Columns[j].Name == string(name) {
					col = j
					break
				}
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("relstore: table %q has no column %q", c.schema.Name, name)
		}
		next = col + 1
		cd := &c.schema.Columns[col]
		v, rest, err := decodeBinValue(b, cd.Type)
		if err != nil {
			return nil, fmt.Errorf("relstore: table %q column %q: %w", c.schema.Name, cd.Name, err)
		}
		b = rest
		if v != nil {
			row[cd.Name] = v
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("relstore: table %q: %d trailing bytes after binary row", c.schema.Name, len(b))
	}
	return row, nil
}

// decodeBinValue parses one tagged value, checking the tag against the
// declared column type, and returns the typed value plus the remaining
// bytes. A binNull tag yields (nil, rest, nil): the column is absent.
func decodeBinValue(b []byte, t ColType) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("missing value tag")
	}
	tag, b := b[0], b[1:]
	if tag == binNull {
		return nil, b, nil
	}
	if want := typeTag(t); tag != want && !(t == TBool && (tag == binFalse || tag == binTrue)) {
		return nil, nil, fmt.Errorf("value tag %d does not match %s", tag, t)
	}
	switch tag {
	case binInt:
		v, n := binary.Varint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("truncated int")
		}
		return v, b[n:], nil
	case binFloat:
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("truncated float")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
	case binString:
		s, rest, err := readLenBytes(b)
		if err != nil {
			return nil, nil, err
		}
		return string(s), rest, nil
	case binFalse:
		return false, b, nil
	case binTrue:
		return true, b, nil
	case binBytes:
		s, rest, err := readLenBytes(b)
		if err != nil {
			return nil, nil, err
		}
		cp := make([]byte, len(s))
		copy(cp, s)
		return cp, rest, nil
	case binTime:
		sec, n := binary.Varint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("truncated time seconds")
		}
		b = b[n:]
		nanos, n := binary.Uvarint(b)
		if n <= 0 || nanos >= 1e9 {
			return nil, nil, fmt.Errorf("bad time nanoseconds")
		}
		return time.Unix(sec, int64(nanos)).UTC(), b[n:], nil
	}
	return nil, nil, fmt.Errorf("unknown value tag %d", tag)
}

// typeTag maps a column type to the non-null tag its values carry.
func typeTag(t ColType) byte {
	switch t {
	case TInt:
		return binInt
	case TFloat:
		return binFloat
	case TString:
		return binString
	case TBool:
		return binFalse // binTrue handled alongside by the caller
	case TBytes:
		return binBytes
	case TTime:
		return binTime
	}
	return 0xFF
}

// readLenBytes parses a uvarint length-prefixed byte string and returns
// it (aliasing b) with the remaining bytes.
func readLenBytes(b []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("truncated length")
	}
	b = b[n:]
	if l > uint64(len(b)) {
		return nil, nil, fmt.Errorf("length %d exceeds remaining %d bytes", l, len(b))
	}
	return b[:l], b[l:], nil
}

// validateRowBytes structurally checks an encoded row without a schema:
// header present, every field name and tagged value well-formed, no
// trailing garbage. readWAL uses it so a checksum-valid frame whose row
// payload is not a row surfaces as a decode error at read time (never
// silently dropped) — schema-dependent checks (names, types) then happen
// at apply time, when replay order guarantees the table's schema matches.
func validateRowBytes(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("short binary row")
	}
	b = b[4:]
	nf, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("bad field count")
	}
	b = b[n:]
	if nf > uint64(len(b)) { // each field needs ≥1 byte; rejects absurd counts early
		return fmt.Errorf("field count %d exceeds payload", nf)
	}
	for i := uint64(0); i < nf; i++ {
		name, rest, err := readLenBytes(b)
		if err != nil {
			return fmt.Errorf("field name: %w", err)
		}
		if len(name) == 0 {
			return fmt.Errorf("empty field name")
		}
		b = rest
		if len(b) == 0 {
			return fmt.Errorf("missing value tag")
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case binNull, binFalse, binTrue:
		case binInt:
			_, n := binary.Varint(b)
			if n <= 0 {
				return fmt.Errorf("truncated int")
			}
			b = b[n:]
		case binFloat:
			if len(b) < 8 {
				return fmt.Errorf("truncated float")
			}
			b = b[8:]
		case binString, binBytes:
			_, rest, err := readLenBytes(b)
			if err != nil {
				return err
			}
			b = rest
		case binTime:
			_, n := binary.Varint(b)
			if n <= 0 {
				return fmt.Errorf("truncated time seconds")
			}
			b = b[n:]
			nanos, n := binary.Uvarint(b)
			if n <= 0 || nanos >= 1e9 {
				return fmt.Errorf("bad time nanoseconds")
			}
			b = b[n:]
		default:
			return fmt.Errorf("unknown value tag %d", tag)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%d trailing bytes after binary row", len(b))
	}
	return nil
}

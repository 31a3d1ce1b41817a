package relstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
//	  1 tag byte (binNull..binTime; 2 is retired)
//	  tag-specific value bytes
//
// A table's schema never changes while the table exists, so the schema
// hash is a decode precondition: a row whose hash is not its table's was
// written under another schema, by an older build, and is refused with
// ErrLegacyFormat. Fields arrive in schema order as a subset of the
// columns, so the decoder matches each name moving forward only; field
// names keep a row readable without its schema (validateRowBytes).
//
// Value encodings are lossless: times travel as (seconds, nanoseconds)
// pairs (no UnixNano overflow for pre-1678/post-2262 instants), bytes
// raw. Tag 2 (a float) is retired and must not be reused: no column type
// maps to it, so validateRowBytes and decodeRow refuse a row carrying it.

// Value tag bytes. The tag describes the wire form of the value that
// follows, so a reader can skip or validate a row without any schema.
const (
	binNull   = 0 // no value bytes (absent column)
	binInt    = 1 // zigzag varint
	binString = 3 // uvarint length + raw bytes
	binFalse  = 4 // no value bytes
	binTrue   = 5 // no value bytes
	binBytes  = 6 // uvarint length + raw bytes
	binTime   = 7 // zigzag varint unix seconds + uvarint nanoseconds
)

// rowCodec encodes and decodes rows for one schema. A codec is
// immutable; each table caches the one for its schema.
type rowCodec struct {
	schema Schema
	hash   uint32
}

// schemaHash fingerprints the row layout of a schema: the key name plus
// every (column name, type) pair in declaration order. Index flags and
// nullability do not change how a row encodes, so they are excluded.
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
// values are copied out of b, so the caller's buffer may be reused. The
// row's schema hash must be the codec's (ErrLegacyFormat otherwise),
// every field name must be a declared column later in schema order than
// the one before it, and every tag must match its column's type.
func (c *rowCodec) decodeRow(b []byte) (Row, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("relstore: table %q: short binary row", c.schema.Name)
	}
	if h := binary.LittleEndian.Uint32(b); h != c.hash {
		return nil, fmt.Errorf("%w (a row of table %q carries schema hash %08x, the table's is %08x)",
			ErrLegacyFormat, c.schema.Name, h, c.hash)
	}
	b = b[4:]
	cols := c.schema.Columns
	nf, n := binary.Uvarint(b)
	if n <= 0 || nf > uint64(len(cols)) {
		return nil, fmt.Errorf("relstore: table %q: bad binary row field count", c.schema.Name)
	}
	b = b[n:]
	row := make(Row, nf)
	next := 0 // fields arrive in schema order: the cursor only moves forward
	for i := uint64(0); i < nf; i++ {
		name, rest, err := readLenBytes(b)
		if err != nil {
			return nil, fmt.Errorf("relstore: table %q: binary row field name: %w", c.schema.Name, err)
		}
		b = rest
		for next < len(cols) && cols[next].Name != string(name) {
			next++
		}
		if next == len(cols) {
			return nil, fmt.Errorf("relstore: table %q: field %q is not a column in schema order", c.schema.Name, name)
		}
		cd := &cols[next]
		next++
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

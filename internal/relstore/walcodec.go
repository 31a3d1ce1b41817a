package relstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
)

// WAL record payloads. This file is the one place that writes and
// reads them; wal.go frames each payload with its length and checksum.
//
// A frame payload's first byte names its kind. Every commit is an ops
// record:
//
//	0x01 (binRecordTag)
//	uvarint op count
//	per op:
//	  1 opcode byte (opPut / opSeq)
//	  uvarint table-name length, table name
//	  put: uvarint id length, id, uvarint row length, row (rowcodec)
//	  seq: uvarint sequence value
//
// Opcode 2 is retired and must not be reused: the store never deletes,
// and a frame carrying it fails to decode. A table creation is a
// CreateTable record, which is rare and carries its Schema as JSON:
// {"createTable": <Schema>}, and nothing else; a schema that fails
// Schema.Check fails to decode. One that re-declares an existing table
// with another schema decodes, and applying it fails: ErrLegacyFormat.
// A '{' payload that carries "ops" holds JSON rows, which this version
// does not read: ErrLegacyFormat.
const (
	binRecordTag = 0x01

	opPut = 1
	opSeq = 3
)

// walOp is one decoded mutation of an ops record. A put's rowBin is its
// row in rowcodec form, aliasing the payload it was read from.
type walOp struct {
	Op     byte
	Table  string
	ID     string
	Seq    int64
	rowBin []byte
}

// walRecord is one decoded WAL payload: either a table creation or the
// operations of a single transaction.
type walRecord struct {
	CreateTable *Schema
	Ops         []walOp
}

// schemaRecord is the JSON payload of a CreateTable frame. Ops exists
// only so decoding can tell a JSON-rows frame from a malformed one.
type schemaRecord struct {
	CreateTable *Schema           `json:"createTable,omitempty"`
	Ops         []json.RawMessage `json:"ops,omitempty"`
}

// decodeRecord parses one checksum-valid frame payload. The rows of an
// ops record alias payload: every caller applies the record while the
// bytes it was read from are alive, and decodeRow copies what it keeps.
func decodeRecord(payload []byte) (walRecord, error) {
	if len(payload) > 0 && payload[0] == binRecordTag {
		return decodeBinRecord(payload)
	}
	if len(payload) == 0 || payload[0] != '{' {
		return walRecord{}, fmt.Errorf("relstore: decode wal record: unknown payload format")
	}
	var rec schemaRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return walRecord{}, fmt.Errorf("relstore: decode wal record: %w", err)
	}
	switch {
	case rec.CreateTable != nil && len(rec.Ops) == 0:
		if err := rec.CreateTable.Check(); err != nil {
			return walRecord{}, fmt.Errorf("relstore: decode wal record: %w", err)
		}
		return walRecord{CreateTable: rec.CreateTable}, nil
	case rec.CreateTable == nil && len(rec.Ops) > 0:
		return walRecord{}, fmt.Errorf("%w (a WAL frame holds JSON rows)", ErrLegacyFormat)
	}
	return walRecord{}, fmt.Errorf("relstore: decode wal record: a JSON frame must hold createTable and nothing else")
}

// appendOpsHeader opens an ops record of n ops in dst.
func appendOpsHeader(dst []byte, n int) []byte {
	dst = append(dst, binRecordTag)
	return binary.AppendUvarint(dst, uint64(n))
}

// appendPut appends a put op whose row c encodes in place. The row's
// length is known only once it is written, so one prefix byte is held
// for it and widened after when the row is 128 bytes or longer.
func appendPut(dst []byte, table, id string, c *rowCodec, r Row) ([]byte, error) {
	dst = append(dst, opPut)
	dst = appendLenBytes(dst, table)
	dst = appendLenBytes(dst, id)
	at := len(dst)
	dst, err := c.appendRow(append(dst, 0), r)
	if err != nil {
		return nil, err
	}
	var prefix [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(prefix[:], uint64(len(dst)-at-1))
	return slices.Replace(dst, at, at+1, prefix[:w]...), nil
}

// appendSeq appends an op that advances table's sequence to seq.
func appendSeq(dst []byte, table string, seq int64) []byte {
	dst = append(dst, opSeq)
	dst = appendLenBytes(dst, table)
	return binary.AppendUvarint(dst, uint64(seq))
}

func appendLenBytes(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeBinRecord parses an ops record payload (first byte already
// known to be binRecordTag). Row payloads are structurally validated
// here — the schema-free half of the decode contract — and kept as raw
// bytes aliasing payload, which the caller must not reuse; the
// schema-dependent half happens at apply time via rowCodec.decodeRow,
// when replay order guarantees the table's schema matches. Any
// malformation is a decode error: the frame's checksum held, so this is
// not a torn write and is never silently dropped.
func decodeBinRecord(payload []byte) (walRecord, error) {
	b := payload[1:]
	nops, n := binary.Uvarint(b)
	if n <= 0 {
		return walRecord{}, fmt.Errorf("relstore: decode wal record: bad op count")
	}
	b = b[n:]
	if nops > uint64(len(b)) { // each op needs ≥1 byte
		return walRecord{}, fmt.Errorf("relstore: decode wal record: op count %d exceeds payload", nops)
	}
	rec := walRecord{Ops: make([]walOp, 0, nops)}
	for i := uint64(0); i < nops; i++ {
		if len(b) == 0 {
			return walRecord{}, fmt.Errorf("relstore: decode wal record: missing opcode")
		}
		opcode := b[0]
		b = b[1:]
		tbl, rest, err := readLenBytes(b)
		if err != nil {
			return walRecord{}, fmt.Errorf("relstore: decode wal record: table name: %w", err)
		}
		b = rest
		op := walOp{Op: opcode, Table: string(tbl)}
		switch opcode {
		case opPut:
			id, rest, err := readLenBytes(b)
			if err != nil {
				return walRecord{}, fmt.Errorf("relstore: decode wal record: row id: %w", err)
			}
			row, rest2, err := readLenBytes(rest)
			if err != nil {
				return walRecord{}, fmt.Errorf("relstore: decode wal record: row payload: %w", err)
			}
			if err := validateRowBytes(row); err != nil {
				return walRecord{}, fmt.Errorf("relstore: decode wal record: row for table %q: %w", op.Table, err)
			}
			op.ID, op.rowBin, b = string(id), row, rest2
		case opSeq:
			seq, n := binary.Uvarint(b)
			if n <= 0 {
				return walRecord{}, fmt.Errorf("relstore: decode wal record: truncated sequence")
			}
			op.Seq, b = int64(seq), b[n:]
		default:
			return walRecord{}, fmt.Errorf("relstore: decode wal record: unknown opcode %d", opcode)
		}
		rec.Ops = append(rec.Ops, op)
	}
	if len(b) != 0 {
		return walRecord{}, fmt.Errorf("relstore: decode wal record: %d trailing bytes", len(b))
	}
	return rec, nil
}

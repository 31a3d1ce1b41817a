package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
)

// WAL record envelope.
//
// A frame payload's first byte names its kind. Every commit is an ops
// record:
//
//	0x01 (binRecordTag)
//	uvarint op count
//	per op:
//	  1 opcode byte (binOpPut / binOpSeq)
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

	binOpPut = 1
	binOpSeq = 3
)

// schemaRecord is the JSON payload of a CreateTable frame. Ops exists
// only so decoding can tell a JSON-rows frame from a malformed one.
type schemaRecord struct {
	CreateTable *Schema           `json:"createTable,omitempty"`
	Ops         []json.RawMessage `json:"ops,omitempty"`
}

// decodeRecord parses one checksum-valid frame payload. Ops records get
// their own copy of the payload because their decoded rows alias it.
func decodeRecord(payload []byte) (walRecord, error) {
	if len(payload) > 0 && payload[0] == binRecordTag {
		return decodeBinRecord(bytes.Clone(payload))
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

// appendBinRecord appends the binary encoding of an ops-only record to
// dst. Put ops must carry their pre-encoded row bytes (rowBin), encoded
// under the store lock at enqueue time; the envelope itself is
// schema-free, so it is assembled here, after the lock is released.
// CreateTable records never take this path; they are JSON-framed.
func appendBinRecord(dst []byte, rec walRecord) ([]byte, error) {
	if rec.CreateTable != nil {
		return nil, fmt.Errorf("relstore: CreateTable records are JSON-framed")
	}
	dst = append(dst, binRecordTag)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Ops)))
	for i := range rec.Ops {
		op := &rec.Ops[i]
		switch op.Op {
		case opPut:
			if op.rowBin == nil {
				return nil, fmt.Errorf("relstore: put op for table %q without encoded row", op.Table)
			}
			dst = append(dst, binOpPut)
			dst = appendLenBytes(dst, op.Table)
			dst = appendLenBytes(dst, op.ID)
			dst = binary.AppendUvarint(dst, uint64(len(op.rowBin)))
			dst = append(dst, op.rowBin...)
		case opSeq:
			dst = append(dst, binOpSeq)
			dst = appendLenBytes(dst, op.Table)
			dst = binary.AppendUvarint(dst, uint64(op.Seq))
		default:
			return nil, fmt.Errorf("relstore: unknown WAL op %q", op.Op)
		}
	}
	return dst, nil
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
		op := walOp{Table: string(tbl)}
		switch opcode {
		case binOpPut:
			op.Op = opPut
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
		case binOpSeq:
			op.Op = opSeq
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

// framePool recycles frame-payload encode buffers so the group committer
// allocates no per-record scratch on the steady-state commit path.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// maxPooledFrameBuf bounds the capacity of buffers returned to the pool;
// a one-off giant row must not pin its buffer forever.
const maxPooledFrameBuf = 1 << 20

func getFrameBuf() *[]byte {
	return framePool.Get().(*[]byte)
}

func putFrameBuf(b *[]byte) {
	if cap(*b) > maxPooledFrameBuf {
		return
	}
	*b = (*b)[:0]
	framePool.Put(b)
}

package relstore

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSchema is the table the fuzz corpus writes to.
var fuzzSchema = Schema{Name: "t", Key: "r", Columns: []Column{
	{Name: "r", Type: TString},
	{Name: "v", Type: TFloat, Nullable: true},
}}

// opsFrame frames one ops record the way the WAL writer would.
func opsFrame(t testing.TB, ops ...walOp) []byte {
	t.Helper()
	payload, err := appendBinRecord(nil, walRecord{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	return frame(payload)
}

// fuzzRow encodes one fuzzSchema row through the rowcodec.
func fuzzRow(t testing.TB, v float64) []byte {
	t.Helper()
	codec := newRowCodec(fuzzSchema)
	rb, err := codec.appendRow(nil, Row{"v": v})
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

// fuzzSegment builds a well-formed segment byte stream of n records.
func fuzzSegment(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Write(opsFrame(t,
			walOp{Op: opPut, Table: "t", ID: "r1", rowBin: fuzzRow(t, float64(i))},
			walOp{Op: opSeq, Table: "t", Seq: int64(i + 1)}))
	}
	return buf.Bytes()
}

// jsonOpsFrame is a frame of JSON rows: its checksum holds, and the
// reader refuses it with ErrLegacyFormat.
var jsonOpsFrame = frame([]byte(`{"ops":[{"op":"put","table":"t","id":"r1","row":{"v":1}},{"op":"seq","table":"t","seq":1}]}`))

// lyingLengthFrame is a 16-byte input whose header claims a 512 MiB
// payload: the length, then a 4-byte checksum and 8 payload bytes.
var lyingLengthFrame = append(binary.LittleEndian.AppendUint32(nil, 512<<20), make([]byte, 12)...)

// FuzzReadWAL throws arbitrary bytes — seeded with valid segments and
// targeted corruptions (truncations, bit flips, lying length fields,
// checksum-valid garbage payloads) — at the segment reader and asserts
// its recovery contract:
//
//   - it never panics;
//   - it never returns a record decoded from bytes past the first
//     corruption (the records always equal a clean re-read of the valid
//     prefix it reports);
//   - corruption is surfaced as an error, never silently dropped: a nil
//     error means every input byte was consumed as valid frames.
func FuzzReadWAL(f *testing.F) {
	valid := fuzzSegment(f, 3)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])           // torn payload
	f.Add(valid[:5])                      // torn header
	f.Add(append([]byte{}, valid[8:]...)) // header stripped: garbage framing
	flip := append([]byte{}, valid...)
	flip[len(flip)/2] ^= 0x40 // bit flip in the middle
	f.Add(flip)
	lie := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(lie[0:4], 1<<31) // absurd length field
	f.Add(lie)
	short := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(short[0:4], 1<<20) // length past EOF
	f.Add(short)
	// Checksum-valid frame whose payload is not a record: must surface a
	// decode error, not silently drop or misparse.
	evil := frame([]byte("not json"))
	f.Add(append(append([]byte{}, valid...), evil...))
	f.Add(frame([]byte{}))
	// What is refused although its checksum holds: JSON rows (alone, and
	// after frames that must still be returned) and a CreateTable frame
	// that smuggles ops. And what is accepted: a CreateTable frame ahead
	// of the ops that use it.
	f.Add(jsonOpsFrame)
	f.Add(append(append([]byte{}, valid...), jsonOpsFrame...))
	f.Add(frame([]byte(`{"createTable":{"name":"t","key":"r","columns":[{"name":"r","type":"string"}]},"ops":[{"op":"seq","table":"t","seq":1}]}`)))
	f.Add(append(frameCreate(f, fuzzSchema), valid...))
	f.Add(frame([]byte{binRecordTag}))
	f.Add(frame([]byte{binRecordTag, 0xFF, 0xFF, 0xFF}))
	f.Add(frame(append([]byte{binRecordTag}, []byte("garbage after tag")...)))
	f.Add(lyingLengthFrame)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, err := readWAL(bytes.NewReader(data))
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid prefix %d outside input of %d bytes", n, len(data))
		}
		if err == nil && n != int64(len(data)) {
			t.Fatalf("nil error but only %d of %d bytes consumed: corruption silently dropped", n, len(data))
		}
		if err != nil && n == int64(len(data)) {
			t.Fatalf("error %v but the whole input was counted as valid", err)
		}
		// The reported records must be exactly what the valid prefix
		// contains — nothing read past the corruption survives.
		recs2, n2, err2 := readWAL(bytes.NewReader(data[:n]))
		if err2 != nil {
			t.Fatalf("re-reading the reported valid prefix failed: %v", err2)
		}
		if n2 != n || len(recs2) != len(recs) {
			t.Fatalf("prefix re-read: %d recs / %d bytes, first read %d recs / %d bytes",
				len(recs2), n2, len(recs), n)
		}
	})
}

// TestReadWALSurfacesMidStreamCorruption pins the non-fuzz property the
// recovery path depends on: a damaged frame with valid frames after it
// yields only the prefix plus an error — the reader does not resync.
func TestReadWALSurfacesMidStreamCorruption(t *testing.T) {
	seg := fuzzSegment(t, 4)
	// Flip one byte of the second record's payload.
	firstLen := binary.LittleEndian.Uint32(seg[0:4])
	cut := 8 + int(firstLen)
	seg[cut+8+2] ^= 0xFF
	recs, n, err := readWAL(bytes.NewReader(seg))
	if err == nil {
		t.Fatal("corruption not surfaced")
	}
	if len(recs) != 1 || n != int64(cut) {
		t.Fatalf("got %d recs, %d-byte prefix; want 1 rec, %d bytes", len(recs), n, cut)
	}
}

// TestReadWALChecksumCatchesEveryBitFlip flips every bit position of a
// single-record segment in turn; no flip may yield a successful full
// read with altered content.
func TestReadWALChecksumCatchesEveryBitFlip(t *testing.T) {
	seg := fuzzSegment(t, 1)
	for i := 0; i < len(seg)*8; i++ {
		mut := append([]byte{}, seg...)
		mut[i/8] ^= 1 << (i % 8)
		recs, _, err := readWAL(bytes.NewReader(mut))
		if err == nil && len(recs) == 1 {
			// Only acceptable if the flip cancelled out to the identical
			// payload — impossible for a single flip, so re-encode and
			// compare to be sure nothing altered slipped through.
			payload, _ := appendBinRecord(nil, recs[0])
			if !bytes.Equal(payload, seg[8:]) {
				t.Fatalf("bit %d: altered record accepted", i)
			}
		}
	}
}

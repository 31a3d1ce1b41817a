package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// dirContents reads every file in dir except the directory lock.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		if e.Name() == "store.lock" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyFormatRefused: every artefact of a pre-binary build fails
// with ErrLegacyFormat. Open refuses before it changes the directory —
// each directory also holds a stale segment a successful open would
// delete and a torn tail it would truncate — and FollowerApply refuses
// without making anything durable or poisoning the replica.
func TestLegacyFormatRefused(t *testing.T) {
	openCases := []struct {
		name  string
		plant func(t *testing.T, dir, final string)
	}{
		{"json-snapshot", func(t *testing.T, dir, _ string) {
			snap := `{"version":1,"walSeq":1,"tables":[]}`
			if err := os.WriteFile(filepath.Join(dir, "store.snapshot"), []byte(snap), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"store.wal-present", func(t *testing.T, dir, _ string) {
			if err := os.WriteFile(filepath.Join(dir, "store.wal"), frameCreate(t, usersSchema()), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"json-ops-frame-in-final-segment", func(t *testing.T, _, final string) {
			appendFile(t, final, jsonOpsFrame)
		}},
	}
	for _, tc := range openCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			final := closedStore(t, dir)
			tc.plant(t, dir, final)
			if err := refusedOpen(t, dir, final); !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("Open: %v, want ErrLegacyFormat", err)
			}
		})
	}

	t.Run("json-ops-frame-to-FollowerApply", func(t *testing.T) {
		dir := t.TempDir()
		follower := openFollower(t, dir)
		create := frameCreate(t, fuzzSchema)
		if _, err := follower.FollowerApply(create); err != nil {
			t.Fatal(err)
		}
		before := dirContents(t, dir)
		n, err := follower.FollowerApply(jsonOpsFrame)
		if !errors.Is(err, ErrLegacyFormat) || IsTornFrame(err) || n != 0 {
			t.Fatalf("FollowerApply: consumed %d, %v; want 0, ErrLegacyFormat", n, err)
		}
		if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatal("refused frame reached the replica's disk")
		}
		if _, off := follower.FollowerPosition(); off != int64(len(create)) {
			t.Fatalf("position moved to %d", off)
		}
		valid := fuzzSegment(t, 1)
		if n, err := follower.FollowerApply(valid); err != nil || n != int64(len(valid)) {
			t.Fatalf("replica poisoned by a refused frame: %d, %v", n, err)
		}
	})
}

// closedStore writes a closed store into dir — a snapshot and several
// segments — and returns the path of its final segment.
func closedStore(t *testing.T, dir string) string {
	t.Helper()
	db := smallSegments(t, dir, -1)
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.Put("users", userRow(fmt.Sprintf("u%d", i), "kept", int64(i)))
		}); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) < 2 {
		t.Fatalf("segments %v, %v", seqs, err)
	}
	return filepath.Join(dir, segmentName(seqs[len(seqs)-1]))
}

// refusedOpen plants what a successful Open would change — a segment the
// snapshot covers, and a frame cut short at the tail of the final
// segment — then opens dir, asserts the open failed without touching the
// directory, and returns its error.
func refusedOpen(t *testing.T, dir, final string) error {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	appendFile(t, final, fuzzSegment(t, 1)[:11])
	before := dirContents(t, dir)
	db, err := Open(dir, nil)
	if err == nil {
		db.Close()
		t.Fatal("Open succeeded")
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused Open changed the directory: %d files before, %d after", len(before), len(after))
	}
	return err
}

// retiredForms are checksum-valid inputs of what this store no longer
// writes: a delete op, a put whose row carries the float tag, and
// CreateTable records that declare a float column or index an int one.
// Each comes as a WAL frame and, where a snapshot can hold it, as a
// snapshot file.
func retiredForms(t testing.TB) []struct {
	name            string
	frame, snapshot []byte
} {
	deleteOp := []byte{binRecordTag, 1, 2} // one op, opcode 2
	deleteOp = appendLenBytes(deleteOp, "t")
	deleteOp = appendLenBytes(deleteOp, "r1")
	floatRow := floatTaggedRow(schemaHash(fuzzSchema), "v", math.Float64bits(0.5))
	floatColumn := Schema{Name: "f", Key: "id", Columns: []Column{{Name: "id", Type: TString}, {Name: "x", Type: "float"}}}
	indexedInt := Schema{Name: "n", Key: "id", Columns: []Column{{Name: "id", Type: TString}, {Name: "x", Type: TInt, Indexed: true}}}
	return []struct {
		name            string
		frame, snapshot []byte
	}{
		{"delete-op", frame(deleteOp), nil},
		{"float-tagged-row", opsFrame(t, walOp{Op: opPut, Table: "t", ID: "r1", rowBin: floatRow}), snapshotOf(t, fuzzSchema, floatRow)},
		{"float-column", frameCreate(t, floatColumn), snapshotOf(t, floatColumn, nil)},
		{"indexed-int-column", frameCreate(t, indexedInt), snapshotOf(t, indexedInt, nil)},
	}
}

// snapshotOf is a snapshot file of one table, s, holding the encoded row
// when it is not nil.
func snapshotOf(t testing.TB, s Schema, row []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeSnapshot(&b, []tableClone{{schema: s}}, 0); err != nil {
		t.Fatal(err)
	}
	if row == nil {
		return b.Bytes()
	}
	// The snapshot ends with its one table's row count, 0: make it 1.
	out := append(b.Bytes()[:b.Len()-1], 1)
	return append(binary.AppendUvarint(out, uint64(len(row))), row...)
}

// TestRetiredFormsRefused: recovery, FollowerApply and snapshot load
// refuse each retired form as a decode error before applying anything.
// A refused Open leaves the directory byte-identical; a refused frame
// reaches neither the replica's disk nor its tables, and does not
// poison it; a refused snapshot leaves the tables a follower serves.
func TestRetiredFormsRefused(t *testing.T) {
	for _, tc := range retiredForms(t) {
		t.Run(tc.name+"/recovery", func(t *testing.T) {
			dir := t.TempDir()
			final := closedStore(t, dir)
			appendFile(t, final, tc.frame)
			t.Log(refusedOpen(t, dir, final))
		})
		t.Run(tc.name+"/FollowerApply", func(t *testing.T) {
			dir := t.TempDir()
			follower := openFollower(t, dir)
			create := frameCreate(t, fuzzSchema)
			if _, err := follower.FollowerApply(create); err != nil {
				t.Fatal(err)
			}
			before, state := dirContents(t, dir), stateOf(follower)
			n, err := follower.FollowerApply(tc.frame)
			if err == nil || IsTornFrame(err) || n != 0 {
				t.Fatalf("FollowerApply: consumed %d, %v; want 0 and a decode error", n, err)
			}
			if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("refused frame reached the replica's disk")
			}
			checkState(t, "refused frame changed the replica's tables", state, stateOf(follower))
			if _, off := follower.FollowerPosition(); off != int64(len(create)) {
				t.Fatalf("position moved to %d", off)
			}
			valid := fuzzSegment(t, 1)
			if n, err := follower.FollowerApply(valid); err != nil || n != int64(len(valid)) {
				t.Fatalf("replica poisoned by a refused frame: %d, %v", n, err)
			}
		})
		if tc.snapshot == nil {
			continue
		}
		t.Run(tc.name+"/snapshot", func(t *testing.T) {
			dir := t.TempDir()
			final := closedStore(t, dir)
			if err := os.WriteFile(filepath.Join(dir, "store.snapshot"), tc.snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Log(refusedOpen(t, dir, final))

			follower := openFollower(t, t.TempDir())
			if _, err := follower.FollowerApply(append(frameCreate(t, fuzzSchema), fuzzSegment(t, 2)...)); err != nil {
				t.Fatal(err)
			}
			state := stateOf(follower)
			if err := follower.FollowerReinit(bytes.NewReader(tc.snapshot)); err == nil {
				t.Fatal("FollowerReinit accepted the snapshot")
			}
			checkState(t, "refused snapshot replaced the tables the follower serves", state, stateOf(follower))
		})
	}
}

// TestSchemaDriftRefused: a table's schema never changes, so what a build
// that upgraded schemas in place wrote — a CreateTable record that adds a
// nullable column to an existing table, a put whose row carries another
// schema's hash, a snapshot row whose hash is not its header schema's —
// is refused with ErrLegacyFormat, and nothing of it is applied. A
// refused Open leaves the directory byte-identical and a refused
// snapshot the tables a follower serves. A shipped frame is durable
// before it applies, so the follower takes the unrecoverable-replica
// path: it is poisoned, and reopening resets it.
func TestSchemaDriftRefused(t *testing.T) {
	wider := fuzzSchema
	wider.Columns = append(slices.Clone(fuzzSchema.Columns), Column{Name: "extra", Type: TString, Nullable: true})
	widerCodec := newRowCodec(wider)
	foreign, err := widerCodec.appendRow(nil, Row{"r": "b", "v": int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name            string
		frame, snapshot []byte
	}{
		{"create-adds-nullable-column", frameCreate(t, wider), nil},
		// The first put is sound: the record applies all or nothing.
		{"row-under-another-hash", opsFrame(t,
			walOp{Op: opPut, Table: "t", ID: "a", rowBin: fuzzRow(t, 1)},
			walOp{Op: opPut, Table: "t", ID: "b", rowBin: foreign}), snapshotOf(t, fuzzSchema, foreign)},
	}
	for _, tc := range cases {
		if tc.frame != nil {
			t.Run(tc.name+"/recovery", func(t *testing.T) {
				dir := t.TempDir()
				final := closedStore(t, dir)
				appendFile(t, final, append(frameCreate(t, fuzzSchema), tc.frame...))
				if err := refusedOpen(t, dir, final); !errors.Is(err, ErrLegacyFormat) {
					t.Fatalf("Open: %v, want ErrLegacyFormat", err)
				}
			})
			t.Run(tc.name+"/FollowerApply", func(t *testing.T) {
				dir := t.TempDir()
				follower, err := Open(dir, &Options{Follower: true, CompactEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { follower.Close() }()
				if _, err := follower.FollowerApply(append(frameCreate(t, fuzzSchema), fuzzSegment(t, 1)...)); err != nil {
					t.Fatal(err)
				}
				state := stateOf(follower)
				n, err := follower.FollowerApply(tc.frame)
				if !errors.Is(err, ErrLegacyFormat) || n != int64(len(tc.frame)) {
					t.Fatalf("FollowerApply: consumed %d, %v; want the frame and ErrLegacyFormat", n, err)
				}
				checkState(t, "refused frame changed the replica's tables", state, stateOf(follower))
				follower.mu.RLock()
				same := schemaEqual(follower.tables["t"].schema, fuzzSchema)
				follower.mu.RUnlock()
				if !same {
					t.Fatal("refused frame changed the table's schema")
				}
				if _, err := follower.FollowerApply(fuzzSegment(t, 1)); err == nil {
					t.Fatal("replica applied a frame after a refused one: not poisoned")
				}
				follower.Close()
				follower, err = Open(dir, &Options{Follower: true, CompactEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				if !errors.Is(follower.OpenReset(), ErrLegacyFormat) || len(stateOf(follower)) != 0 {
					t.Fatalf("reopened replica: reset %v, %d lines of state; want a reset for ErrLegacyFormat", follower.OpenReset(), len(stateOf(follower)))
				}
			})
		}
		if tc.snapshot == nil {
			continue
		}
		t.Run(tc.name+"/snapshot", func(t *testing.T) {
			dir := t.TempDir()
			final := closedStore(t, dir)
			if err := os.WriteFile(filepath.Join(dir, "store.snapshot"), tc.snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := refusedOpen(t, dir, final); !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("Open: %v, want ErrLegacyFormat", err)
			}

			follower := openFollower(t, t.TempDir())
			if _, err := follower.FollowerApply(append(frameCreate(t, fuzzSchema), fuzzSegment(t, 2)...)); err != nil {
				t.Fatal(err)
			}
			state := stateOf(follower)
			if err := follower.FollowerReinit(bytes.NewReader(tc.snapshot)); !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("FollowerReinit: %v, want ErrLegacyFormat", err)
			}
			checkState(t, "refused snapshot replaced the tables the follower serves", state, stateOf(follower))
		})
	}
}

// TestReadWALLyingLengthAllocatesLittle: a header that claims 512 MiB
// over 8 bytes of payload is a torn frame, and finding that out costs
// what the input holds, not what the header claims.
func TestReadWALLyingLengthAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, n, err := readWAL(lyingLengthFrame)
	runtime.ReadMemStats(&after)
	if !IsTornFrame(err) || len(recs) != 0 || n != 0 {
		t.Fatalf("readWAL = %d recs, %d bytes, %v; want a torn frame", len(recs), n, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
		t.Fatalf("decoding a 16-byte input allocated %d bytes", got)
	}
}

// TestReadSnapshotLyingLengthAllocatesLittle: a snapshot is outside input
// (a follower receives it from its leader), so a row length of 512 MiB
// with no bytes behind it, or a table count in the millions with no
// tables behind it, is refused at the cost of what the file holds.
func TestReadSnapshotLyingLengthAllocatesLittle(t *testing.T) {
	var empty bytes.Buffer
	if err := writeSnapshot(&empty, []tableClone{{schema: usersSchema()}}, 1); err != nil {
		t.Fatal(err)
	}
	// The well-formed snapshot ends with its one table's row count, 0.
	header := empty.Bytes()[:empty.Len()-1]
	lyingRow := append(append([]byte(nil), header...), 1) // one row follows...
	lyingRow = binary.AppendUvarint(lyingRow, 512<<20)    // ...of 512 MiB, and then nothing
	lyingTables := binary.AppendUvarint(append([]byte(snapshotMagic), 1), 1<<24)

	for name, file := range map[string][]byte{"row length": lyingRow, "table count": lyingTables} {
		path := filepath.Join(t.TempDir(), "store.snapshot")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := readSnapshotFile(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("lying %s: snapshot accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("lying %s: refusing a %d-byte snapshot allocated %d bytes", name, len(file), got)
		}
	}
}

// snapshotTableTwice is a snapshot, written by writeSnapshot, that
// names table "users" twice, each time with a different row.
func snapshotTableTwice(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, []tableClone{
		{schema: usersSchema(), seq: 1, rows: []Row{userRow("u1", "ada", 36)}},
		{schema: usersSchema(), seq: 2, rows: []Row{userRow("u2", "bob", 41)}},
	}, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotRowTwice is a snapshot of table "users" whose two rows, encoded
// by hand through the rowcodec, carry the same id.
func snapshotRowTwice(t testing.TB) []byte {
	t.Helper()
	schema, err := json.Marshal(usersSchema())
	if err != nil {
		t.Fatal(err)
	}
	b := binary.AppendUvarint([]byte(snapshotMagic), 1) // walSeq
	b = binary.AppendUvarint(b, 1)                      // one table
	b = binary.AppendUvarint(b, uint64(len(schema)))
	b = append(b, schema...)
	b = binary.AppendUvarint(b, 1) // seq
	b = binary.AppendUvarint(b, 2) // two rows
	codec := newRowCodec(usersSchema())
	for _, age := range []int64{36, 37} {
		row, err := codec.appendRow(nil, userRow("u1", "ada", age))
		if err != nil {
			t.Fatal(err)
		}
		b = binary.AppendUvarint(b, uint64(len(row)))
		b = append(b, row...)
	}
	return b
}

// TestSnapshotRepeatRefused: writeSnapshot names each table and each
// row once, so a snapshot that repeats either — from disk at Open, or
// from a leader in FollowerReinit — is corrupt, and the repeat must not
// silently replace what came before it.
func TestSnapshotRepeatRefused(t *testing.T) {
	for _, tc := range []struct {
		file []byte
		want string
	}{
		{snapshotTableTwice(t), `table "users" appears twice`},
		{snapshotRowTwice(t), `row "u1" appears twice`},
	} {
		_, _, err := readSnapshot(bytes.NewReader(tc.file))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want %q, got err = %v", tc.want, err)
		}
	}
}

// snapshotMemFixture builds clones holding dataBytes of []byte payloads
// spread over rows of blobSize each.
func snapshotMemFixture(dataBytes, blobSize int) []tableClone {
	s := Schema{Name: "blobs", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "data", Type: TBytes},
	}}
	var rows []Row
	for off := 0; off < dataBytes; off += blobSize {
		blob := make([]byte, blobSize)
		for i := range blob {
			blob[i] = byte(i + off)
		}
		rows = append(rows, Row{
			"id":   fmt.Sprintf("row-%06d", off/blobSize),
			"data": blob,
		})
	}
	return []tableClone{{schema: s, seq: 1, rows: rows}}
}

// TestSnapshotReadMemoryBounded: readSnapshotFile streams row by row, so
// total allocation for restoring D bytes of row data stays within a
// small multiple of D (one decoded copy per row plus fixed-size buffers)
// instead of scaling with a second whole-store copy.
func TestSnapshotReadMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped in -short")
	}
	const data = 16 << 20
	clones := snapshotMemFixture(data, 256<<10)
	path := filepath.Join(t.TempDir(), "store.snapshot")
	if err := writeFileSync(path, func(w io.Writer) error { return writeSnapshot(w, clones, 1) }); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tables, _, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(tables["blobs"].rows) != data/(256<<10) {
		t.Fatalf("restored %d rows", len(tables["blobs"].rows))
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > 2*data {
		t.Errorf("snapshot read allocated %d bytes restoring %d bytes of rows; not streaming", allocated, data)
	}
	runtime.KeepAlive(tables)
}

// TestPersistedOrderedFlagIsIgnored: builds up to PR 19 had a second
// index kind, selected by an "ordered" flag on the column, and persisted
// the flag wherever a Schema is persisted as JSON. A store that carries
// it — in a CreateTable frame or in a snapshot header — opens under the
// schema without it as the same table: CreateTable is a no-op that logs
// nothing, and the stale scan the flag used to serve still answers.
func TestPersistedOrderedFlagIsIgnored(t *testing.T) {
	const flagged = `{"name":"jobs","key":"id","columns":[{"name":"id","type":"string"},` +
		`{"name":"status","type":"string","indexed":true},{"name":"hb","type":"int","ordered":true,"nullable":true}]}`
	plain := Schema{Name: "jobs", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "status", Type: TString, Indexed: true},
		{Name: "hb", Type: TInt, Nullable: true},
	}}
	stale := func(db *DB) []string {
		t.Helper()
		return selectIDs(t, db, NewQuery().Eq("status", "running"), hbIn(0, 2))
	}
	dir := t.TempDir()
	logged := func() string { // every segment's bytes, in segment order
		t.Helper()
		seqs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, seq := range seqs {
			b, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return string(all)
	}

	create := frame([]byte(`{"createTable":` + flagged + `}`))
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), create, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, &Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("open a store with a flagged CreateTable frame: %v", err)
	}
	if err := db.CreateTable(plain); err != nil {
		t.Fatal(err)
	}
	if got := logged(); got != string(create) {
		t.Fatalf("CreateTable with the flag-less schema logged %d byte(s)", len(got)-len(create))
	}
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 4; i++ {
			if err := tx.Put("jobs", Row{"id": fmt.Sprintf("j%d", i), "status": "running", "hb": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := stale(db); !sameIDs(got, "j0", "j1") {
		t.Fatalf("stale scan over the frame-created table: %v", got)
	}

	// The same through a snapshot: compact, then put the flag back into
	// the header's schema JSON, as the older build would have written it.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "store.snapshot")
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	written, _ := json.Marshal(plain)
	lenPrefixed := func(b []byte) []byte { return append(binary.AppendUvarint(nil, uint64(len(b))), b...) }
	if bytes.Count(snap, lenPrefixed(written)) != 1 {
		t.Fatal("fixture: snapshot does not hold the schema JSON once")
	}
	snap = bytes.Replace(snap, lenPrefixed(written), lenPrefixed([]byte(flagged)), 1)
	if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, &Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("open a store with a flagged snapshot header: %v", err)
	}
	defer db.Close()
	before := logged()
	if err := db.CreateTable(plain); err != nil {
		t.Fatal(err)
	}
	if got := logged(); got != before {
		t.Fatalf("CreateTable after the snapshot reopen logged %d byte(s)", len(got)-len(before))
	}
	if got := stale(db); !sameIDs(got, "j0", "j1") {
		t.Fatalf("stale scan over the snapshot-restored table: %v", got)
	}
}

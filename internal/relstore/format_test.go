package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
			db := smallSegments(t, dir, -1)
			if err := db.CreateTable(usersSchema()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if err := db.Update(func(tx *Tx) error {
					return tx.Insert("users", userRow(fmt.Sprintf("u%d", i), "kept", int64(i)))
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
			final := filepath.Join(dir, segmentName(seqs[len(seqs)-1]))
			tc.plant(t, dir, final)
			// A segment the snapshot covers, and a frame cut short at the
			// tail of the final segment.
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte("stale"), 0o644); err != nil {
				t.Fatal(err)
			}
			appendFile(t, final, fuzzSegment(t, 1)[:11])

			before := dirContents(t, dir)
			if _, err := Open(dir, nil); !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("Open: %v, want ErrLegacyFormat", err)
			}
			if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused Open changed the directory: %d files before, %d after", len(before), len(after))
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

// TestReadWALLyingLengthAllocatesLittle: a header that claims 512 MiB
// over 8 bytes of payload is a torn frame, and finding that out costs
// what the input holds, not what the header claims.
func TestReadWALLyingLengthAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, n, err := readWAL(bytes.NewReader(lyingLengthFrame))
	runtime.ReadMemStats(&after)
	if !IsTornFrame(err) || len(recs) != 0 || n != 0 {
		t.Fatalf("readWAL = %d recs, %d bytes, %v; want a torn frame", len(recs), n, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
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

// snapshotMemFixture builds clones holding dataBytes of []byte payloads
// spread over rows of blobSize each.
func snapshotMemFixture(dataBytes, blobSize int) []tableClone {
	s := Schema{Name: "blobs", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "data", Type: TBytes},
	}}
	rows := make(map[string]Row)
	for off := 0; off < dataBytes; off += blobSize {
		blob := make([]byte, blobSize)
		for i := range blob {
			blob[i] = byte(i + off)
		}
		rows[fmt.Sprintf("row-%06d", off/blobSize)] = Row{
			"id":   fmt.Sprintf("row-%06d", off/blobSize),
			"data": blob,
		}
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
	if err := writeSnapshotTmp(path, clones, 1); err != nil {
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
// nothing, and the range query the flag used to serve still answers.
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
		return selectIDs(t, db, NewQuery().Eq("status", "running").Lt("hb", int64(2)))
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
			if err := tx.Insert("jobs", Row{"id": fmt.Sprintf("j%d", i), "status": "running", "hb": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := stale(db); !sameIDs(got, "j0", "j1") {
		t.Fatalf("range query over the frame-created table: %v", got)
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
		t.Fatalf("range query over the snapshot-restored table: %v", got)
	}
}

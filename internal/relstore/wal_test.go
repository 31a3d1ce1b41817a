package relstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// frame renders one payload as a complete WAL frame, via the same
// putFrameHeader the production writer uses; the hand-built segments in
// these tests and the fuzz corpus can never drift from the real layout.
func frame(payload []byte) []byte {
	var hdr [8]byte
	putFrameHeader(&hdr, payload)
	return append(hdr[:], payload...)
}

// smallSegments opens a store whose segments rotate after ~1/4 KiB so a
// modest workload spans many segments.
func smallSegments(t *testing.T, dir string, compactEvery int) *DB {
	t.Helper()
	db, err := Open(dir, &Options{CompactEvery: compactEvery, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, seq := range []int64{1, 42, 99999999} {
		name := segmentName(seq)
		got, ok := parseSegmentName(name)
		if !ok || got != seq {
			t.Fatalf("parse(%q) = %d, %v", name, got, ok)
		}
	}
	for _, name := range []string{"store.wal", "wal-.seg", "wal-0000000x.seg", "wal-00000000.seg", "wal-00000001.seg.tmp", "wal--0000001.seg"} {
		if _, ok := parseSegmentName(name); ok {
			t.Fatalf("parse(%q) accepted", name)
		}
	}
}

// TestSegmentRotation: a workload larger than the segment threshold
// produces multiple segments, and the full state replays across them.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	db := smallSegments(t, dir, -1)
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("u%02d", i)
		if err := db.Update(func(tx *Tx) error { return tx.Insert("users", userRow(id, "rot", int64(i))) }); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.WALSegments < 2 {
		t.Fatalf("expected multiple segments, stats=%+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		n, _ := tx.Count("users", NewQuery())
		if n != 30 {
			t.Errorf("recovered %d rows, want 30", n)
		}
		return nil
	})
}

// TestCompactionDeletesOnlySealedSegments: after a compaction cycle the
// sealed segments are gone, the snapshot records the boundary, and
// recovery replays only segments above it.
func TestCompactionDeletesOnlySealedSegments(t *testing.T) {
	dir := t.TempDir()
	db := smallSegments(t, dir, -1)
	db.CreateTable(usersSchema())
	for i := 0; i < 20; i++ {
		db.Update(func(tx *Tx) error { return tx.Insert("users", userRow(fmt.Sprintf("u%02d", i), "c", int64(i))) })
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Everything sealed was deleted; only the fresh active segment remains.
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("segments after compact = %v", seqs)
	}
	// The snapshot's boundary is exactly below the surviving segment.
	_, snapSeq, err := readSnapshotFile(filepath.Join(dir, "store.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if snapSeq != seqs[0]-1 {
		t.Fatalf("snapshot walSeq = %d, active segment = %d", snapSeq, seqs[0])
	}
	// Post-compaction writes land in the new segment and survive reopen.
	db.Update(func(tx *Tx) error { return tx.Insert("users", userRow("u99", "after", 99)) })
	db.Close()
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		n, _ := tx.Count("users", NewQuery())
		if n != 21 {
			t.Errorf("recovered %d rows, want 21", n)
		}
		return nil
	})
}

// TestMidSequenceCorruptionRefusesStartup: a torn record anywhere but
// the final segment means acknowledged commits are gone; the store must
// refuse to open rather than silently resurrect a partial history.
func TestMidSequenceCorruptionRefusesStartup(t *testing.T) {
	dir := t.TempDir()
	db := smallSegments(t, dir, -1)
	db.CreateTable(usersSchema())
	for i := 0; i < 30; i++ {
		db.Update(func(tx *Tx) error { return tx.Insert("users", userRow(fmt.Sprintf("u%02d", i), "m", int64(i))) })
	}
	db.Close()
	seqs, _ := listSegments(dir)
	if len(seqs) < 2 {
		t.Fatalf("need multiple segments, got %v", seqs)
	}
	// Chop the tail off the FIRST segment.
	first := filepath.Join(dir, segmentName(seqs[0]))
	data, _ := os.ReadFile(first)
	os.WriteFile(first, data[:len(data)-5], 0o644)

	_, err := Open(dir, nil)
	if err == nil || !strings.Contains(err.Error(), "mid-sequence corruption") {
		t.Fatalf("open with mid-sequence corruption: %v", err)
	}
}

// TestMissingSegmentRefusesStartup: a gap in the segment sequence is
// unrecoverable data loss and must refuse startup.
func TestMissingSegmentRefusesStartup(t *testing.T) {
	dir := t.TempDir()
	db := smallSegments(t, dir, -1)
	db.CreateTable(usersSchema())
	for i := 0; i < 30; i++ {
		db.Update(func(tx *Tx) error { return tx.Insert("users", userRow(fmt.Sprintf("u%02d", i), "g", int64(i))) })
	}
	db.Close()
	seqs, _ := listSegments(dir)
	if len(seqs) < 3 {
		t.Fatalf("need >=3 segments, got %v", seqs)
	}
	os.Remove(filepath.Join(dir, segmentName(seqs[1])))
	if _, err := Open(dir, nil); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("open with missing segment: %v", err)
	}
}

// TestTornTailRepairedBeforeNewWrites: recovery truncates the torn tail
// of the final segment, so commits made after recovery are never
// shadowed by garbage on the *next* recovery — the failure mode a
// single-file append-after-torn-tail WAL silently had.
func TestTornTailRepairedBeforeNewWrites(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(usersSchema())
	db.Update(func(tx *Tx) error { return tx.Insert("users", userRow("u1", "a", 1)) })
	db.Update(func(tx *Tx) error { return tx.Insert("users", userRow("u2", "b", 2)) })
	db.Close()

	seg := lastSegmentPath(t, dir)
	data, _ := os.ReadFile(seg)
	os.WriteFile(seg, data[:len(data)-3], 0o644)

	// First reopen: u2's record is torn away; write two more rows.
	db2, err := Open(dir, &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db2.Update(func(tx *Tx) error { return tx.Insert("users", userRow("u3", "c", 3)) })
	db2.Update(func(tx *Tx) error { return tx.Insert("users", userRow("u4", "d", 4)) })
	db2.Close()

	// Second reopen must see u1 (intact), u3 and u4 (post-repair writes).
	db3, err := Open(dir, &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	db3.View(func(tx *Tx) error {
		for _, id := range []string{"u1", "u3", "u4"} {
			if ok, _ := tx.Exists("users", id); !ok {
				t.Errorf("%s lost after torn-tail repair", id)
			}
		}
		if ok, _ := tx.Exists("users", "u2"); ok {
			t.Error("torn u2 resurrected")
		}
		return nil
	})
}

// TestStaleSegmentsCleanedOnOpen: segments at or below the snapshot
// boundary (leftovers of a compaction that crashed between the snapshot
// rename and the deletes) are removed, not replayed.
func TestStaleSegmentsCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	db := smallSegments(t, dir, -1)
	db.CreateTable(usersSchema())
	for i := 0; i < 20; i++ {
		db.Update(func(tx *Tx) error { return tx.Insert("users", userRow(fmt.Sprintf("u%02d", i), "s", int64(i))) })
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Update(func(tx *Tx) error { return tx.Insert("users", userRow("u99", "live", 99)) })
	db.Close()
	// Resurrect a stale pre-boundary segment with garbage content — it
	// must be ignored (and removed) because the snapshot covers it.
	stale := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(stale, []byte("not a segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale segment not cleaned up")
	}
	db2.View(func(tx *Tx) error {
		n, _ := tx.Count("users", NewQuery())
		if n != 21 {
			t.Errorf("rows = %d, want 21", n)
		}
		return nil
	})
}

// TestCloseRemovesEmptyActiveSegment: open/close cycles without writes
// must not accumulate empty segment files.
func TestCloseRemovesEmptyActiveSegment(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(usersSchema())
	db.Update(func(tx *Tx) error { return tx.Insert("users", userRow("u1", "a", 1)) })
	db.Close()
	for i := 0; i < 5; i++ {
		db, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	seqs, _ := listSegments(dir)
	if len(seqs) != 1 {
		t.Fatalf("idle open/close cycles left segments %v", seqs)
	}
}

// TestOpenRefusesConcurrentProcess: the store directory is locked for
// the lifetime of a DB — a second Open (second daemon on the same
// -data dir) must fail instead of truncating the live active segment,
// and the lock must clear on Close.
func TestOpenRefusesConcurrentProcess(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("second Open of a live store succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	db2.Close()
}

// TestBackgroundCompactionTriggersAutomatically: the commit-count
// trigger fires without any manual Compact call.
func TestBackgroundCompactionTriggersAutomatically(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{CompactEvery: 8, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable(usersSchema())
	for i := 0; i < 40; i++ {
		if err := db.Update(func(tx *Tx) error { return tx.Insert("users", userRow(fmt.Sprintf("u%02d", i), "bg", int64(i))) }); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitCompaction()
	st := db.Stats()
	if st.Compactions == 0 || st.Snapshots != 1 {
		t.Fatalf("background compaction never ran: %+v", st)
	}
	if st.LastCompactErr != "" {
		t.Fatalf("compaction error: %s", st.LastCompactErr)
	}
}

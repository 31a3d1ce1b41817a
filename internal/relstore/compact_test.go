package relstore

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

// TestCompactShrinksWAL: after compaction the WAL is empty and the
// snapshot carries the state.
func TestCompactShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable(usersSchema())
	for i := 0; i < 100; i++ {
		db.Update(func(tx *Tx) error {
			return tx.Put("users", userRow(fmt.Sprintf("u%d", i), "x", int64(i)))
		})
	}
	before := db.Stats()
	if before.WALSizeB == 0 {
		t.Fatal("WAL empty before compaction")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.WALSizeB != 0 {
		t.Fatalf("WAL size after compact = %d", after.WALSizeB)
	}
	if after.Snapshots != 1 {
		t.Fatal("snapshot missing after compact")
	}
	if after.Rows != 100 {
		t.Fatalf("rows after compact = %d", after.Rows)
	}
}

// TestSnapshotIsAnExactCut: a compaction snapshot holds exactly the sealed
// segments' commits and none of the segment that follows. A follower that
// bootstraps from the snapshot serves reads while it applies that segment
// from its first frame, so a snapshot already ahead of the frame would
// show them a row going backwards. Writers bump one counter row while
// Compact runs in a loop; after each cycle the counter in the snapshot
// file is strictly below the counter in the first frame of segment
// boundary+1.
func TestSnapshotIsAnExactCut(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{CompactEvery: -1}) // only Compact rotates: segments are 4 MiB
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.Put("users", userRow("counter", "c", 0)) }); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := db.Update(func(tx *Tx) error {
					row, err := tx.Get("users", "counter")
					if err != nil {
						return err
					}
					row = maps.Clone(row)
					row["age"] = row["age"].(int64) + 1
					return tx.Put("users", row)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)

	codec := newTable(usersSchema()).codec
	for cycle := 0; cycle < 40; cycle++ {
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		tables, boundary, err := readSnapshotFile(db.snapshotPath())
		if err != nil {
			t.Fatal(err)
		}
		inSnapshot := tables["users"].rows["counter"]["age"].(int64)

		// The segment is being appended to: wait for its first whole
		// frame, and mind only that one.
		var first walRecord
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			data, err := os.ReadFile(db.SegmentPath(boundary + 1))
			if err != nil {
				t.Fatal(err)
			}
			recs, _, _ := readWAL(data)
			if len(recs) > 0 {
				first = recs[0]
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: segment %d never got a frame", cycle, boundary+1)
			}
		}
		row, err := codec.decodeRow(first.Ops[0].rowBin)
		if err != nil {
			t.Fatal(err)
		}
		if after := row["age"].(int64); inSnapshot >= after {
			t.Fatalf("cycle %d: snapshot at boundary %d holds counter %d, but segment %d starts at %d: the snapshot contains commits of the segment after its boundary",
				cycle, boundary, inSnapshot, boundary+1, after)
		}
	}
}

// TestCompactionWaitsForEnqueuedCommit: the cut waits for a commit that
// is applied and enqueued but not yet written. The snapshot then holds
// the commit and the segment after its boundary does not; a cut taken
// without the wait seals the segment first, the commit lands in
// boundary+1, and a follower bootstrapping from the snapshot would show
// its readers the commit before applying it again.
func TestCompactionWaitsForEnqueuedCommit(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.Put("users", userRow("a", "c", 1)) }); err != nil {
		t.Fatal(err)
	}

	// Update's critical section without its await: the commit is applied
	// and enqueued, and nothing writes it until the test does.
	tx := takeTx(db, true)
	var batch *walBatch
	db.mu.Lock()
	err = tx.Put("users", userRow("b", "c", 2))
	if err == nil {
		batch, err = db.commitApply(tx)
	}
	db.mu.Unlock()
	putTx(tx)
	if err != nil || batch == nil {
		t.Fatalf("commitApply: batch %v, err %v", batch, err)
	}

	var cerr error
	compacted := make(chan struct{})
	go func() {
		cerr = db.Compact()
		close(compacted)
	}()
	select {
	case <-compacted:
		t.Error("Compact returned while an enqueued commit was still unwritten")
	case <-time.After(50 * time.Millisecond):
	}
	if err := db.awaitCommit(batch); err != nil {
		t.Fatal(err)
	}
	<-compacted
	if cerr != nil {
		t.Fatal(cerr)
	}

	tables, boundary, err := readSnapshotFile(db.snapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(db.SegmentPath(boundary + 1))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := readWAL(data)
	if n := len(tables["users"].rows); n != 2 || len(recs) != 0 {
		t.Fatalf("snapshot holds %d, segment %d holds %d records: want the enqueued commit in the snapshot and nothing after the boundary",
			n, boundary+1, len(recs))
	}
}

// TestSnapshotBytesAreAFunctionOfState: a snapshot lists tables by name
// and each table's rows in key order, so its bytes depend on the state
// alone. Two stores that reach one state by different commit orders —
// one inserts in key order, the other in a shuffled order and then
// rewrites every row, moving it between index entries — write identical
// snapshots, and a second compaction of the same state, with no commit
// between, leaves the file as it was and cuts the same bytes again.
func TestSnapshotBytesAreAFunctionOfState(t *testing.T) {
	const n = 300
	final := func(i int) Row { return userRow(fmt.Sprintf("u%04d", i), fmt.Sprintf("team-%d", i%7), int64(i)) }
	build := func(order []int, detour bool) (*DB, []byte) {
		db, err := Open(t.TempDir(), &Options{Sync: SyncBatched, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.CreateTable(usersSchema(), fuzzSchema); err != nil {
			t.Fatal(err)
		}
		put := func(rows ...Row) {
			err := db.Update(func(tx *Tx) error {
				for _, r := range rows {
					if err := tx.Put("users", r); err != nil {
						return err
					}
				}
				return tx.Put("t", Row{"r": "last", "v": rows[len(rows)-1]["age"]})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range order {
			if detour {
				put(userRow(fmt.Sprintf("u%04d", i), "detour", -1))
			}
		}
		for _, i := range order {
			put(final(i))
		}
		put(final(n - 1)) // both stores end on the same "t" row
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(db.snapshotPath())
		if err != nil {
			t.Fatal(err)
		}
		return db, snap
	}
	inOrder := make([]int, n)
	for i := range inOrder {
		inOrder[i] = i
	}
	shuffled := rand.New(rand.NewSource(1)).Perm(n)
	_, a := build(inOrder, false)
	db, b := build(shuffled, true)
	if !bytes.Equal(a, b) {
		t.Fatalf("one state, two commit orders: snapshots of %d and %d bytes differ", len(a), len(b))
	}

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(db.snapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	db.mu.RLock()
	err = writeSnapshot(&cut, cloneTables(db.tables), db.snapSeq.Load())
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, b) || !bytes.Equal(cut.Bytes(), b) {
		t.Fatal("compacting the same state again gave different bytes")
	}
}

package relstore

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestCompactionEquivalence: compacting at any point leaves the store
// observably identical, before and after a reopen (property).
func TestCompactionEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db, err := Open(dir, &Options{Sync: SyncBatched, CompactEvery: -1})
		if err != nil {
			return false
		}
		if err := db.CreateTable(usersSchema()); err != nil {
			return false
		}
		model := map[string]int64{}
		ops := 20 + r.Intn(60)
		for i := 0; i < ops; i++ {
			id := fmt.Sprintf("u%d", r.Intn(15))
			if r.Intn(4) == 0 {
				db.Update(func(tx *Tx) error { tx.Delete("users", id); return nil })
				delete(model, id)
			} else {
				age := r.Int63n(100)
				db.Update(func(tx *Tx) error { return tx.Put("users", userRow(id, "c", age)) })
				model[id] = age
			}
			// Random manual compaction points.
			if r.Intn(10) == 0 {
				if err := db.Compact(); err != nil {
					t.Logf("compact: %v", err)
					return false
				}
			}
		}
		if err := db.Compact(); err != nil {
			return false
		}
		check := func(db *DB) bool {
			ok := true
			db.View(func(tx *Tx) error {
				n, _ := tx.Count("users", NewQuery())
				if n != len(model) {
					ok = false
					return nil
				}
				for id, age := range model {
					row, err := tx.Get("users", id)
					if err != nil || row["age"].(int64) != age {
						ok = false
						return nil
					}
				}
				return nil
			})
			return ok
		}
		if !check(db) {
			db.Close()
			return false
		}
		db.Close()
		db2, err := Open(dir, nil)
		if err != nil {
			return false
		}
		defer db2.Close()
		return check(db2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

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
	if err := db.Update(func(tx *Tx) error { return tx.Insert("users", userRow("counter", "c", 0)) }); err != nil {
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
			f, err := os.Open(db.SegmentPath(boundary + 1))
			if err != nil {
				t.Fatal(err)
			}
			recs, _, _ := readWAL(f)
			f.Close()
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

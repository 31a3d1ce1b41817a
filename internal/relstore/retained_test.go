package relstore

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// blobSchema is a table of byte payloads, the shape of core's entity rows.
func blobSchema() Schema {
	return Schema{Name: "blobs", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "data", Type: TBytes},
	}}
}

const retainedRows = 16

// putBlobs writes generation gen of every blob, one commit per row so the
// writes span several of openLeader's small segments.
func putBlobs(t *testing.T, db *DB, gen int) {
	t.Helper()
	for i := 0; i < retainedRows; i++ {
		data := []byte(fmt.Sprintf("gen%d-row%02d-%s", gen, i, strings.Repeat("x", 40)))
		if err := db.Update(func(tx *Tx) error {
			return tx.Put("blobs", Row{"id": fmt.Sprintf("b%02d", i), "data": data})
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// retain takes every blob's data column in one View the way core's
// multi-row reads do — the store's own slices, uncopied — and returns
// them beside a private copy to compare against.
func retain(t *testing.T, db *DB) (held, want [][]byte) {
	t.Helper()
	if err := db.View(func(tx *Tx) error {
		return tx.SelectFunc("blobs", NewQuery(), func(row Row) bool {
			b := row["data"].([]byte)
			held = append(held, b)
			want = append(want, bytes.Clone(b))
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if len(held) != retainedRows {
		t.Fatalf("retained %d rows, want %d", len(held), retainedRows)
	}
	return held, want
}

// watch reads the retained slices in a loop until the returned stop is
// called, then checks them once more. Under -race a store write into any
// of them, concurrent with these reads, is reported as a race; without
// the detector a changed byte is.
func watch(t *testing.T, held, want [][]byte) (stop func()) {
	t.Helper()
	check := func() {
		for i := range held {
			if !bytes.Equal(held[i], want[i]) {
				t.Errorf("retained row %d changed: %q, want %q", i, held[i], want[i])
				return
			}
		}
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			check()
		}
	}()
	return func() {
		done.Store(true)
		wg.Wait()
		check()
	}
}

// wantGeneration asserts the store now serves generation gen: the writes
// the retained bytes had to survive really happened.
func wantGeneration(t *testing.T, db *DB, gen int) {
	t.Helper()
	held, _ := retain(t, db)
	for i, b := range held {
		if prefix := fmt.Sprintf("gen%d-row%02d-", gen, i); !bytes.HasPrefix(b, []byte(prefix)) {
			t.Fatalf("row %d = %q, want generation %d", i, b, gen)
		}
	}
}

// bootstrap re-initialises the follower from the leader's snapshot.
func bootstrap(t *testing.T, leader, follower *DB) {
	t.Helper()
	snap, err := os.Open(leader.SnapshotFilePath())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := follower.FollowerReinit(snap); err != nil {
		t.Fatal(err)
	}
}

// TestRetainedBytesOutliveTheView pins the guarantee core's multi-row
// reads rest on when they decode after their View: a []byte read in a
// View stays byte-identical after it — after the row is replaced, after a
// compaction, and on a follower after further applies and a re-bootstrap.
func TestRetainedBytesOutliveTheView(t *testing.T) {
	leader := openLeader(t, t.TempDir())
	if err := leader.CreateTable(blobSchema()); err != nil {
		t.Fatal(err)
	}
	putBlobs(t, leader, 1)

	held, want := retain(t, leader)
	stop := watch(t, held, want)
	putBlobs(t, leader, 2) // every retained row replaced
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	putBlobs(t, leader, 3)
	stop()
	wantGeneration(t, leader, 3)

	follower := openFollower(t, t.TempDir())
	bootstrap(t, leader, follower)
	shipAll(t, leader, follower)
	held, want = retain(t, follower)
	stop = watch(t, held, want)
	putBlobs(t, leader, 4)
	shipAll(t, leader, follower) // further applies
	wantGeneration(t, follower, 4)
	putBlobs(t, leader, 5)
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	bootstrap(t, leader, follower) // a re-bootstrap
	putBlobs(t, leader, 6)
	shipAll(t, leader, follower)
	stop()
	wantGeneration(t, follower, 6)
}

package relstore

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// snapshotLoadFixture compacts a store of n rows into dir and returns
// its snapshot file. Each row is an id and a 16-byte blob, so loading it
// is the loader's own work — decode, the key list, the row map — and not
// the copying of payload.
func snapshotLoadFixture(b *testing.B, dir string, n int) []byte {
	b.Helper()
	s := Schema{Name: "blobs", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "data", Type: TBytes},
	}}
	db, err := Open(dir, &Options{Sync: SyncBatched, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(s); err != nil {
		b.Fatal(err)
	}
	const perTx = 1000
	for lo := 0; lo < n; lo += perTx {
		err := db.Update(func(tx *Tx) error {
			for i := lo; i < min(lo+perTx, n); i++ {
				if err := tx.Put("blobs", Row{"id": fmt.Sprintf("row-%09d", i), "data": bytes.Repeat([]byte{byte(i)}, 16)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	snap, err := os.ReadFile(db.SnapshotFilePath())
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkSnapshotLoad restores a compacted store from its snapshot:
// Open reads it from disk, FollowerReinit from a shipped stream. ns/row
// is the figure to compare across sizes: a loader whose cost per row
// grows with the table — rows arriving out of key order make every
// insert into the sorted key list a memmove — shows as ns/row at 100k
// well above ns/row at 10k.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		dir := b.TempDir()
		snap := snapshotLoadFixture(b, dir, n)
		perRow := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		}
		b.Run(fmt.Sprintf("rows=%d/Open", n), func(b *testing.B) {
			for b.Loop() {
				db, err := Open(dir, &Options{Sync: SyncBatched, CompactEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				got := db.RowCount()
				db.Close()
				if got != int64(n) {
					b.Fatalf("opened %d rows, want %d", got, n)
				}
			}
			perRow(b)
		})
		b.Run(fmt.Sprintf("rows=%d/FollowerReinit", n), func(b *testing.B) {
			follower, err := Open(b.TempDir(), &Options{Sync: SyncBatched, Follower: true, CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer follower.Close()
			for b.Loop() {
				if err := follower.FollowerReinit(bytes.NewReader(snap)); err != nil {
					b.Fatal(err)
				}
			}
			if got := follower.RowCount(); got != int64(n) {
				b.Fatalf("re-bootstrapped %d rows, want %d", got, n)
			}
			perRow(b)
		})
	}
}

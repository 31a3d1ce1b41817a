package relstore

import (
	"fmt"
	"testing"
)

// BenchmarkSelectParallel runs read-only point lookups and indexed
// Limit(1) selects from parallel workers against one shared pre-filled
// table: Views share the store lock, so reads scale with cores. Run with
// -cpu=1,2,4 so the sub-bench names carry the GOMAXPROCS setting.
func BenchmarkSelectParallel(b *testing.B) {
	const rows = 10000
	// In-memory: the bench measures the lock and the read path, not the
	// device.
	db := OpenMemory()
	const tbl = "users"
	if err := db.CreateTable(usersSchema()); err != nil {
		b.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < rows; i++ {
			if err := tx.Put(tbl, userRow(fmt.Sprintf("r%06d", i), fmt.Sprintf("n%d", i%97), int64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}

	b.Run("get", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				id := fmt.Sprintf("r%06d", i%rows)
				i++
				err := db.View(func(tx *Tx) error {
					_, err := tx.Get(tbl, id)
					return err
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("indexed-limit1", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				name := fmt.Sprintf("n%d", i%97)
				i++
				err := db.View(func(tx *Tx) error {
					n, err := tx.Count(tbl, NewQuery().Eq("name", name).Limit(1))
					if err == nil && n != 1 {
						return fmt.Errorf("found %d rows for %s", n, name)
					}
					return err
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

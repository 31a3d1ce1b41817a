package relstore

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestStoreAgreesWithMapModel is the central property test: a random
// sequence of puts — new rows, overwrites, and moves between the values
// of the indexed name column — applied both to the store and to a plain
// map must end in identical states, including after a close and reopen,
// which additionally exercises the WAL replay path.
func TestStoreAgreesWithMapModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db, err := Open(dir, &Options{Sync: SyncBatched, CompactEvery: 7})
		if err != nil {
			t.Logf("open: %v", err)
			return false
		}
		if err := db.CreateTable(usersSchema()); err != nil {
			t.Logf("create: %v", err)
			return false
		}
		model := map[string]modelRow{}
		names := []string{"model", "model", "other"}

		nOps := 30 + r.Intn(120)
		for i := 0; i < nOps; i++ {
			id := fmt.Sprintf("u%d", r.Intn(20))
			e := modelRow{names[r.Intn(len(names))], r.Int63n(100)}
			row := userRow(id, e.name, e.age)
			if err := db.Update(func(tx *Tx) error { return tx.Put("users", row) }); err != nil {
				t.Logf("put: %v", err)
				return false
			}
			model[id] = e
		}
		inModel := 0
		for _, e := range model {
			if e.name == "model" {
				inModel++
			}
		}

		check := func(db *DB, label string) bool {
			ok := true
			db.View(func(tx *Tx) error {
				n, _ := tx.Count("users", NewQuery())
				if n != len(model) {
					t.Logf("%s: count %d != model %d", label, n, len(model))
					ok = false
					return nil
				}
				for id, e := range model {
					row, err := tx.Get("users", id)
					if err != nil {
						t.Logf("%s: get %s: %v", label, id, err)
						ok = false
						return nil
					}
					if row["age"].(int64) != e.age || row["name"] != e.name {
						t.Logf("%s: %s = %v, model %+v", label, id, row, e)
						ok = false
						return nil
					}
				}
				// Index consistency: exactly the rows with name=model must be
				// found via the index-assisted path.
				rows, _ := tx.Select("users", NewQuery().Eq("name", "model"))
				if len(rows) != inModel {
					t.Logf("%s: index path found %d, want %d", label, len(rows), inModel)
					ok = false
				}
				return nil
			})
			return ok
		}

		if !check(db, "before reopen") {
			db.Close()
			return false
		}
		if err := db.Close(); err != nil {
			t.Logf("close: %v", err)
			return false
		}
		db2, err := Open(dir, nil)
		if err != nil {
			t.Logf("reopen: %v", err)
			return false
		}
		defer db2.Close()
		return check(db2, "after reopen")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// modelRow is what the model tests track of a users row.
type modelRow struct {
	name string
	age  int64
}

// TestConcurrentStoreAgreesWithModel runs interleaved random workers
// against the store and a single-threaded reference model. Each worker
// owns a disjoint key range of a shared set of tables (so the final
// per-key state is deterministic no matter how commits interleave) and
// randomly puts, moves rows out of the indexed name, multi-table-commits
// and reads; readers scan
// concurrently the whole time. At the end the store must agree with the
// merged reference model — and still agree after a close and reopen,
// which replays the interleaved WAL. The seed is logged for replay and
// can be pinned via CHRONOS_MODEL_SEED.
func TestConcurrentStoreAgreesWithModel(t *testing.T) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("CHRONOS_MODEL_SEED"); s != "" {
		var err error
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("bad CHRONOS_MODEL_SEED: %v", err)
		}
	}
	t.Logf("seed %d (replay with CHRONOS_MODEL_SEED=%d)", seed, seed)

	const (
		workers  = 6
		tables   = 3
		opsPerW  = 400
		keysPerW = 25
		readersN = 2
	)
	dir := t.TempDir()
	db, err := Open(dir, &Options{Sync: SyncBatched, CompactEvery: 200, SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tableName := func(i int) string { return fmt.Sprintf("m%d", i) }
	for i := 0; i < tables; i++ {
		s := usersSchema()
		s.Name = tableName(i)
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}

	// models[w][table][id] is the row's name and age; each worker is the
	// only writer of its keys, so its model needs no locking and the
	// merged result is exact.
	models := make([]map[string]map[string]modelRow, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		models[w] = make(map[string]map[string]modelRow, tables)
		for i := 0; i < tables; i++ {
			models[w][tableName(i)] = make(map[string]modelRow)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			model := models[w]
			for i := 0; i < opsPerW; i++ {
				id := fmt.Sprintf("w%d-u%d", w, r.Intn(keysPerW))
				tbl := tableName(r.Intn(tables))
				switch r.Intn(5) {
				case 0: // move out of the indexed name
					age := r.Int63n(100)
					if err := db.Update(func(tx *Tx) error { return tx.Put(tbl, userRow(id, "moved", age)) }); err != nil {
						errs <- fmt.Errorf("worker %d: move: %w", w, err)
						return
					}
					model[tbl][id] = modelRow{"moved", age}
				case 1: // multi-table commit (same id into every table)
					age := r.Int63n(100)
					err := db.Update(func(tx *Tx) error {
						for j := 0; j < tables; j++ {
							if err := tx.Put(tableName(j), userRow(id, "model", age)); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						errs <- fmt.Errorf("worker %d: multi-put: %w", w, err)
						return
					}
					for j := 0; j < tables; j++ {
						model[tableName(j)][id] = modelRow{"model", age}
					}
				case 2: // read-modify-write through the store
					err := db.Update(func(tx *Tx) error {
						age := int64(0)
						if row, err := tx.Get(tbl, id); err == nil {
							age = row["age"].(int64)
						} else if err != ErrNotFound {
							return err
						}
						return tx.Put(tbl, userRow(id, "model", age+1))
					})
					if err != nil {
						errs <- fmt.Errorf("worker %d: rmw: %w", w, err)
						return
					}
					model[tbl][id] = modelRow{"model", model[tbl][id].age + 1}
				default: // put
					age := r.Int63n(100)
					if err := db.Update(func(tx *Tx) error { return tx.Put(tbl, userRow(id, "model", age)) }); err != nil {
						errs <- fmt.Errorf("worker %d: put: %w", w, err)
						return
					}
					model[tbl][id] = modelRow{"model", age}
				}
			}
		}(w)
	}

	// Concurrent readers keep the read path busy (their results are
	// checked structurally: a scan must never error or observe a row
	// failing the schema).
	stopReaders := make(chan struct{})
	var readerWG sync.WaitGroup
	for rdr := 0; rdr < readersN; rdr++ {
		readerWG.Add(1)
		go func(rdr int) {
			defer readerWG.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for i := 0; i < tables; i++ {
					err := db.View(func(tx *Tx) error {
						return tx.SelectFunc(tableName(i), NewQuery().Eq("name", "model"), func(r Row) bool {
							if _, ok := r["id"].(string); !ok {
								t.Errorf("reader %d: row without id: %v", rdr, r)
								return false
							}
							return true
						})
					})
					if err != nil {
						t.Errorf("reader %d: %v", rdr, err)
						return
					}
				}
			}
		}(rdr)
	}

	wg.Wait()
	close(stopReaders)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	merged := make(map[string]map[string]modelRow, tables)
	for i := 0; i < tables; i++ {
		merged[tableName(i)] = make(map[string]modelRow)
	}
	for w := 0; w < workers; w++ {
		for tbl, rows := range models[w] {
			for id, e := range rows {
				merged[tbl][id] = e
			}
		}
	}
	check := func(db *DB, label string) {
		for tbl, rows := range merged {
			err := db.View(func(tx *Tx) error {
				n, err := tx.Count(tbl, NewQuery())
				if err != nil {
					return err
				}
				if n != len(rows) {
					t.Errorf("%s: %s has %d rows, model %d", label, tbl, n, len(rows))
				}
				inModel := 0
				for id, e := range rows {
					row, err := tx.Get(tbl, id)
					if err != nil {
						return fmt.Errorf("get %s/%s: %w", tbl, id, err)
					}
					if row["age"].(int64) != e.age || row["name"] != e.name {
						t.Errorf("%s: %s/%s = %v, model %+v", label, tbl, id, row, e)
					}
					if e.name == "model" {
						inModel++
					}
				}
				if n, _ := tx.Count(tbl, NewQuery().Eq("name", "model")); n != inModel {
					t.Errorf("%s: %s index finds %d rows, model %d", label, tbl, n, inModel)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
	check(db, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "after reopen")
}

// TestWALRoundTripProperty: any batch of rows written in one transaction
// survives a reopen byte-for-byte (types preserved).
func TestWALRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db, err := Open(dir, &Options{Sync: SyncBatched})
		if err != nil {
			return false
		}
		if err := db.CreateTable(usersSchema()); err != nil {
			return false
		}
		want := make(map[string]Row)
		err = db.Update(func(tx *Tx) error {
			for i := 0; i < 1+r.Intn(10); i++ {
				id := fmt.Sprintf("u%d", i)
				row := Row{
					"id":      id,
					"name":    fmt.Sprintf("n%d", r.Intn(5)),
					"age":     r.Int63n(1000),
					"score":   int64(r.Intn(100)),
					"admin":   r.Intn(2) == 0,
					"avatar":  []byte{byte(r.Intn(256)), byte(r.Intn(256))},
					"created": time.Unix(r.Int63n(1e9), r.Int63n(1e9)).UTC(),
				}
				want[id] = row
				if err := tx.Put("users", row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Logf("update: %v", err)
			return false
		}
		db.Close()
		db2, err := Open(dir, nil)
		if err != nil {
			return false
		}
		defer db2.Close()
		ok := true
		db2.View(func(tx *Tx) error {
			for id, w := range want {
				got, err := tx.Get("users", id)
				if err != nil {
					ok = false
					return nil
				}
				if got["name"] != w["name"] || got["age"] != w["age"] ||
					got["score"] != w["score"] || got["admin"] != w["admin"] {
					t.Logf("scalar mismatch: %v vs %v", got, w)
					ok = false
					return nil
				}
				gb, wb := got["avatar"].([]byte), w["avatar"].([]byte)
				if len(gb) != len(wb) || gb[0] != wb[0] {
					t.Logf("bytes mismatch")
					ok = false
					return nil
				}
				if !got["created"].(time.Time).Equal(w["created"].(time.Time)) {
					t.Logf("time mismatch: %v vs %v", got["created"], w["created"])
					ok = false
					return nil
				}
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

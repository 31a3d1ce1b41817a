package relstore

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"
)

// A query is equalities and a limit; a caller that wants a range filters
// the rows an Eq or key-order scan streams it, as the watchdog's stale
// scan does. These tests pin what such a filter is handed: every row it
// must see, in key order, through rows moving between index values,
// pending writes, limits and absent nullable columns.

// rangeSchema declares a plain int column next to an indexed equality
// column, mirroring the jobs table's status+heartbeat shape.
func rangeSchema() Schema {
	return Schema{
		Name: "jobs",
		Key:  "id",
		Columns: []Column{
			{Name: "id", Type: TString},
			{Name: "status", Type: TString, Indexed: true},
			{Name: "hb", Type: TInt},
			{Name: "note", Type: TString, Nullable: true},
		},
	}
}

func newRangeDB(t *testing.T, n int) *DB {
	t.Helper()
	db := OpenMemory()
	if err := db.CreateTable(rangeSchema()); err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		err := db.Update(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				status := "cold"
				if i%10 == 0 {
					status = "hot"
				}
				row := Row{"id": fmt.Sprintf("j%04d", i), "status": status, "hb": int64(i)}
				if err := tx.Put("jobs", row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// selectIDs streams q over the jobs table and returns, in scan order, the
// ids of the rows keep accepts (every row when keep is nil).
func selectIDs(t *testing.T, db *DB, q *Query, keep func(Row) bool) []string {
	t.Helper()
	var ids []string
	err := db.View(func(tx *Tx) error {
		return tx.SelectFunc("jobs", q, func(r Row) bool {
			if keep == nil || keep(r) {
				ids = append(ids, r["id"].(string))
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// hbIn accepts rows whose hb column lies in [lo, hi).
func hbIn(lo, hi int64) func(Row) bool {
	return func(r Row) bool {
		hb, ok := r["hb"].(int64)
		return ok && hb >= lo && hb < hi
	}
}

// TestRangeEmptyAndContradictory checks that contradictory equalities,
// indexed or not, match nothing, and that an Eq no committed row holds
// (the planner's empty driver) still sees a matching pending write.
func TestRangeEmptyAndContradictory(t *testing.T) {
	db := newRangeDB(t, 10)
	if got := selectIDs(t, db, NewQuery().Eq("status", "hot").Eq("status", "cold"), nil); len(got) != 0 {
		t.Fatalf("contradictory indexed equalities matched %v", got)
	}
	if got := selectIDs(t, db, NewQuery().Eq("hb", int64(3)).Eq("hb", int64(4)), nil); len(got) != 0 {
		t.Fatalf("contradictory unindexed equalities matched %v", got)
	}
	err := db.Update(func(tx *Tx) error {
		if err := tx.Put("jobs", Row{"id": "j9999", "status": "warm", "hb": int64(100)}); err != nil {
			return err
		}
		var ids []string
		err := tx.SelectFunc("jobs", NewQuery().Eq("status", "warm"), func(r Row) bool {
			ids = append(ids, r["id"].(string))
			return true
		})
		if err != nil {
			return err
		}
		if !sameIDs(ids, "j9999") {
			return fmt.Errorf("pending row invisible behind an empty driver: %v", ids)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRangeEqIntersection checks a range filter over an indexed Eq
// driver, whichever of the two is the more selective.
func TestRangeEqIntersection(t *testing.T) {
	db := newRangeDB(t, 100)
	// Narrow range (hb<10), wide Eq (cold = 90 rows).
	got := selectIDs(t, db, NewQuery().Eq("status", "cold"), hbIn(0, 10))
	if !sameIDs(got, "j0001", "j0002", "j0003", "j0004", "j0005", "j0006", "j0007", "j0008", "j0009") {
		t.Fatalf("narrow-range intersection: %v", got)
	}
	// Wide range (hb>=50 = half the rows), narrow Eq (hot = 10 rows).
	got = selectIDs(t, db, NewQuery().Eq("status", "hot"), hbIn(50, 100))
	if !sameIDs(got, "j0050", "j0060", "j0070", "j0080", "j0090") {
		t.Fatalf("eq-driven intersection: %v", got)
	}
}

// TestRangeOverDeletedKeys moves rows out of their indexed value, inside
// and at the edges of a range — including the low head of both posting
// lists, exercising their head-trimming, the way a claimed job leaves the
// scheduled queue — and checks the Eq scans skip them.
func TestRangeOverDeletedKeys(t *testing.T) {
	db := newRangeDB(t, 30)
	move := func(status string, hb int64, ids ...string) {
		t.Helper()
		err := db.Update(func(tx *Tx) error {
			for _, id := range ids {
				if err := tx.Put("jobs", Row{"id": id, "status": status, "hb": hb}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Move out the head of "cold" (queue-style) plus holes inside the
	// range, and the first two rows of "hot" (j0000, j0010).
	move("done", -1, "j0000", "j0001", "j0002", "j0003", "j0010", "j0012", "j0014")
	cold, hot := NewQuery().Eq("status", "cold"), NewQuery().Eq("status", "hot")
	if got := selectIDs(t, db, cold, hbIn(0, 6)); !sameIDs(got, "j0004", "j0005") {
		t.Fatalf("head-trimmed range: %v", got)
	}
	if got := selectIDs(t, db, cold, hbIn(10, 16)); !sameIDs(got, "j0011", "j0013", "j0015") {
		t.Fatalf("holes in range: %v", got)
	}
	if got := selectIDs(t, db, hot, nil); !sameIDs(got, "j0020") {
		t.Fatalf("head-trimmed hot list: %v", got)
	}
	if got := selectIDs(t, db, NewQuery().Eq("status", "done"), nil); len(got) != 7 {
		t.Fatalf("moved rows: %v", got)
	}
	// Moving a key back in with a new value brings it into range, in key
	// order ahead of the trimmed head.
	move("cold", 12, "j0001")
	if got := selectIDs(t, db, cold, hbIn(10, 16)); !sameIDs(got, "j0001", "j0011", "j0013", "j0015") {
		t.Fatalf("resurrected key: %v", got)
	}
}

// TestRangeLimitEarlyExit checks Limit push-down on the key-order driver:
// the stream stops at the limit, in key order, merging pending rows, and
// the limit counts matching rows, not rows visited.
func TestRangeLimitEarlyExit(t *testing.T) {
	db := newRangeDB(t, 50)
	if got := selectIDs(t, db, NewQuery().Limit(3), nil); !sameIDs(got, "j0000", "j0001", "j0002") {
		t.Fatalf("limit 3: %v", got)
	}
	// SelectFunc early stop without a limit.
	var seen int
	db.View(func(tx *Tx) error {
		return tx.SelectFunc("jobs", NewQuery(), func(Row) bool {
			seen++
			return seen < 2
		})
	})
	if seen != 2 {
		t.Fatalf("early stop saw %d rows", seen)
	}
	// A pending row that sorts first wins under Limit, and an unindexed
	// Eq walks past the rows it rejects without spending the limit.
	err := db.Update(func(tx *Tx) error {
		if err := tx.Put("jobs", Row{"id": "j0009a", "status": "cold", "hb": int64(11)}); err != nil {
			return err
		}
		var ids []string
		err := tx.SelectFunc("jobs", NewQuery().Eq("hb", int64(11)).Limit(2), func(r Row) bool {
			ids = append(ids, r["id"].(string))
			return true
		})
		if err != nil {
			return err
		}
		if !sameIDs(ids, "j0009a", "j0011") {
			return fmt.Errorf("pending row lost under limit: %v", ids)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRangeUnorderedColumnFallsBack checks a nullable, unindexed column:
// an Eq on it is checked row by row on the key-order scan, a row without
// the column matches no Eq on it (not even its zero value), and a range
// filter sees the column absent from such rows.
func TestRangeUnorderedColumnFallsBack(t *testing.T) {
	db := newRangeDB(t, 20)
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < 20; i += 5 {
			id := fmt.Sprintf("j%04d", i)
			r, err := tx.Get("jobs", id)
			if err != nil {
				return err
			}
			r = maps.Clone(r)
			r["note"] = fmt.Sprintf("n%02d", i)
			if err := tx.Put("jobs", r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := selectIDs(t, db, NewQuery().Eq("note", "n05"), nil); !sameIDs(got, "j0005") {
		t.Fatalf("unindexed Eq: %v", got)
	}
	if got := selectIDs(t, db, NewQuery().Eq("note", ""), nil); len(got) != 0 {
		t.Fatalf("absent columns matched Eq on the zero value: %v", got)
	}
	noteIn := func(r Row) bool {
		n, ok := r["note"].(string)
		return ok && n >= "n05" && n < "n15"
	}
	if got := selectIDs(t, db, NewQuery(), noteIn); !sameIDs(got, "j0005", "j0010") {
		t.Fatalf("range filter on a nullable column: %v", got)
	}
}

// TestRangeOnTimeColumn runs the watchdog's stale-scan shape end to end on
// a nullable TTime column: the status equality drives, the callback keeps
// heartbeats strictly before the cutoff, and a row without a heartbeat is
// never kept.
func TestRangeOnTimeColumn(t *testing.T) {
	db := OpenMemory()
	schema := Schema{Name: "jobs", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "status", Type: TString, Indexed: true},
		{Name: "heartbeat", Type: TTime, Nullable: true},
	}}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 7, 29, 12, 0, 0, 0, time.UTC)
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			status := "running"
			if i%2 == 0 {
				status = "finished"
			}
			row := Row{"id": fmt.Sprintf("j%03d", i), "status": status}
			if i != 1 { // j001 runs without a heartbeat
				row["heartbeat"] = base.Add(time.Duration(i) * time.Second)
			}
			if err := tx.Put("jobs", row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cutoff := base.Add(7 * time.Second)
	stale := func(r Row) bool {
		hb, ok := r["heartbeat"].(time.Time)
		return ok && hb.Before(cutoff)
	}
	// j007's heartbeat equals the cutoff: not strictly before, not stale.
	if got := selectIDs(t, db, NewQuery().Eq("status", "running"), stale); !sameIDs(got, "j003", "j005") {
		t.Fatalf("stale scan: %v", got)
	}
}

// TestRangeLimitAllocsScaleFree asserts that a key-order scan whose
// filter stops at its first match allocates the same however deep the
// table: the rows the filter walks past cost compares, not allocations.
func TestRangeLimitAllocsScaleFree(t *testing.T) {
	fill := func(n int) *DB {
		db := OpenMemory()
		if err := db.CreateTable(rangeSchema()); err != nil {
			t.Fatal(err)
		}
		err := db.Update(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				row := Row{"id": fmt.Sprintf("j%06d", i), "status": "cold", "hb": int64(i)}
				if err := tx.Put("jobs", row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	measure := func(db *DB) float64 {
		// A bounded slice of 4 values, somewhere in the middle.
		in := hbIn(40, 44)
		return testing.AllocsPerRun(100, func() {
			found := 0
			db.View(func(tx *Tx) error {
				return tx.SelectFunc("jobs", NewQuery(), func(r Row) bool {
					if in(r) {
						found++
						return false
					}
					return true
				})
			})
			if found != 1 {
				t.Fatalf("filtered scan found %d rows", found)
			}
		})
	}
	small, large := measure(fill(100)), measure(fill(20000))
	if large > small {
		t.Fatalf("filtered scan allocs grow with table size: %v at 100 rows vs %v at 20k rows", small, large)
	}
	if large > 30 {
		t.Fatalf("filtered scan allocates %v times, budget 30", large)
	}
}

// TestRangeConsistentWithFullScan fuzzes random mutations and checks that
// a range filtered over an indexed Eq scan always equals the brute-force
// filter over a full Select, inside transactions and after commit.
func TestRangeConsistentWithFullScan(t *testing.T) {
	db := newRangeDB(t, 0)
	rng := rand.New(rand.NewSource(99))
	statuses := []string{"hot", "cold"}
	check := func(tx *Tx) error {
		for trial := 0; trial < 8; trial++ {
			status := statuses[rng.Intn(2)]
			lo := int64(rng.Intn(100))
			in := hbIn(lo, lo+int64(rng.Intn(40)))
			var indexed, brute []string
			err := tx.SelectFunc("jobs", NewQuery().Eq("status", status), func(r Row) bool {
				if in(r) {
					indexed = append(indexed, r["id"].(string))
				}
				return true
			})
			if err != nil {
				return err
			}
			all, err := tx.Select("jobs", NewQuery())
			if err != nil {
				return err
			}
			for _, r := range all {
				if r["status"] == status && in(r) {
					brute = append(brute, r["id"].(string))
				}
			}
			if !sameIDs(indexed, brute...) {
				return fmt.Errorf("%s from %d: indexed %v, brute %v", status, lo, indexed, brute)
			}
		}
		return nil
	}
	for round := 0; round < 25; round++ {
		err := db.Update(func(tx *Tx) error {
			for i := 0; i < 15; i++ {
				id := fmt.Sprintf("j%04d", rng.Intn(150))
				row := Row{"id": id, "status": statuses[rng.Intn(2)], "hb": int64(rng.Intn(100))}
				if err := tx.Put("jobs", row); err != nil {
					return err
				}
			}
			return check(tx) // pending rows in play
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := db.View(check); err != nil {
			t.Fatalf("round %d post-commit: %v", round, err)
		}
	}
}

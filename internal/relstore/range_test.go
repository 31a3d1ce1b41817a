package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

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
				if err := tx.Insert("jobs", row); err != nil {
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

func selectIDs(t *testing.T, db *DB, q *Query) []string {
	t.Helper()
	var ids []string
	err := db.View(func(tx *Tx) error {
		return tx.SelectFunc("jobs", q, func(r Row) bool {
			ids = append(ids, r["id"].(string))
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestRangeBasicAndBoundaries checks inclusive vs exclusive bounds.
func TestRangeBasicAndBoundaries(t *testing.T) {
	db := newRangeDB(t, 20)
	cases := []struct {
		name string
		q    *Query
		want []string
	}{
		{"lt", NewQuery().Lt("hb", int64(3)), []string{"j0000", "j0001", "j0002"}},
		{"le", NewQuery().Le("hb", int64(3)), []string{"j0000", "j0001", "j0002", "j0003"}},
		{"gt", NewQuery().Gt("hb", int64(16)), []string{"j0017", "j0018", "j0019"}},
		{"ge", NewQuery().Ge("hb", int64(17)), []string{"j0017", "j0018", "j0019"}},
		{"closed", NewQuery().Ge("hb", int64(5)).Le("hb", int64(7)), []string{"j0005", "j0006", "j0007"}},
		{"open-interval", NewQuery().Gt("hb", int64(5)).Lt("hb", int64(8)), []string{"j0006", "j0007"}},
		{"point", NewQuery().Ge("hb", int64(5)).Le("hb", int64(5)), []string{"j0005"}},
		{"below-all", NewQuery().Lt("hb", int64(0)), nil},
		{"above-all", NewQuery().Gt("hb", int64(19)), nil},
	}
	for _, c := range cases {
		if got := selectIDs(t, db, c.q); !sameIDs(got, c.want...) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRangeEmptyAndContradictory checks that contradictory bounds match
// nothing committed but still see matching pending writes — the same
// contract as an Eq on an absent value.
func TestRangeEmptyAndContradictory(t *testing.T) {
	db := newRangeDB(t, 10)
	if got := selectIDs(t, db, NewQuery().Gt("hb", int64(5)).Lt("hb", int64(3))); len(got) != 0 {
		t.Fatalf("contradictory range matched %v", got)
	}
	if got := selectIDs(t, db, NewQuery().Gt("hb", int64(5)).Le("hb", int64(5))); len(got) != 0 {
		t.Fatalf("empty point range matched %v", got)
	}
	// Pending rows are unaffected by the committed-side empty plan: a
	// non-contradictory range that no committed row satisfies must still
	// surface a matching uncommitted insert.
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("jobs", Row{"id": "j9999", "status": "cold", "hb": int64(100)}); err != nil {
			return err
		}
		var ids []string
		err := tx.SelectFunc("jobs", NewQuery().Gt("hb", int64(50)), func(r Row) bool {
			ids = append(ids, r["id"].(string))
			return true
		})
		if err != nil {
			return err
		}
		if !sameIDs(ids, "j9999") {
			return fmt.Errorf("pending row invisible to range: %v", ids)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRangeEqIntersection checks composing a range with an indexed
// equality condition, whichever of the two is the more selective.
func TestRangeEqIntersection(t *testing.T) {
	db := newRangeDB(t, 100)
	// Narrow range (hb<10), wide Eq (cold = 90 rows).
	got := selectIDs(t, db, NewQuery().Eq("status", "cold").Lt("hb", int64(10)))
	if !sameIDs(got, "j0001", "j0002", "j0003", "j0004", "j0005", "j0006", "j0007", "j0008", "j0009") {
		t.Fatalf("narrow-range intersection: %v", got)
	}
	// Wide range (hb>=50 = half the rows), narrow Eq (hot = 10 rows).
	got = selectIDs(t, db, NewQuery().Eq("status", "hot").Ge("hb", int64(50)))
	if !sameIDs(got, "j0050", "j0060", "j0070", "j0080", "j0090") {
		t.Fatalf("eq-driven intersection: %v", got)
	}
	// Count agrees with Select across the same plans.
	db.View(func(tx *Tx) error {
		n, err := tx.Count("jobs", NewQuery().Eq("status", "hot").Ge("hb", int64(50)))
		if err != nil || n != 5 {
			t.Fatalf("count = %d (%v)", n, err)
		}
		return nil
	})
}

// TestRangeOverDeletedKeys deletes rows inside and at the edges of a
// range — including the low head of the table, exercising the posting
// lists' head-trimming — and checks the range skips them.
func TestRangeOverDeletedKeys(t *testing.T) {
	db := newRangeDB(t, 30)
	err := db.Update(func(tx *Tx) error {
		// Delete the entire head (queue-style) plus holes inside the range.
		for _, id := range []string{"j0000", "j0001", "j0002", "j0003", "j0010", "j0012", "j0014"} {
			if err := tx.Delete("jobs", id); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := selectIDs(t, db, NewQuery().Lt("hb", int64(6)))
	if !sameIDs(got, "j0004", "j0005") {
		t.Fatalf("head-trimmed range: %v", got)
	}
	got = selectIDs(t, db, NewQuery().Ge("hb", int64(10)).Le("hb", int64(15)))
	if !sameIDs(got, "j0011", "j0013", "j0015") {
		t.Fatalf("holes in range: %v", got)
	}
	// Re-inserting a deleted key with a new value brings it into range.
	err = db.Update(func(tx *Tx) error {
		return tx.Insert("jobs", Row{"id": "j0000", "status": "cold", "hb": int64(12)})
	})
	if err != nil {
		t.Fatal(err)
	}
	got = selectIDs(t, db, NewQuery().Ge("hb", int64(10)).Le("hb", int64(15)))
	if !sameIDs(got, "j0000", "j0011", "j0013", "j0015") {
		t.Fatalf("resurrected key: %v", got)
	}
}

// TestRangeLimitEarlyExit checks Limit push-down on a range-filtered scan:
// the stream stops at the limit, in key order, merging pending rows.
func TestRangeLimitEarlyExit(t *testing.T) {
	db := newRangeDB(t, 50)
	got := selectIDs(t, db, NewQuery().Ge("hb", int64(10)).Limit(3))
	if !sameIDs(got, "j0010", "j0011", "j0012") {
		t.Fatalf("limit 3: %v", got)
	}
	// SelectFunc early stop without a limit.
	var seen int
	db.View(func(tx *Tx) error {
		return tx.SelectFunc("jobs", NewQuery().Ge("hb", int64(0)), func(Row) bool {
			seen++
			return seen < 2
		})
	})
	if seen != 2 {
		t.Fatalf("early stop saw %d rows", seen)
	}
	// A pending row inside the range that sorts first wins under Limit.
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("jobs", Row{"id": "j0009a", "status": "cold", "hb": int64(11)}); err != nil {
			return err
		}
		var ids []string
		err := tx.SelectFunc("jobs", NewQuery().Ge("hb", int64(10)).Limit(2), func(r Row) bool {
			ids = append(ids, r["id"].(string))
			return true
		})
		if err != nil {
			return err
		}
		if !sameIDs(ids, "j0009a", "j0010") {
			return fmt.Errorf("pending row lost under limit: %v", ids)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRangeUnorderedColumnFallsBack checks ranges on a nullable string
// column: matchesQuery filters correctly on a full scan.
func TestRangeUnorderedColumnFallsBack(t *testing.T) {
	db := newRangeDB(t, 20)
	// note is unindexed; populate a few.
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < 20; i += 5 {
			id := fmt.Sprintf("j%04d", i)
			r, err := tx.Get("jobs", id)
			if err != nil {
				return err
			}
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
	got := selectIDs(t, db, NewQuery().Ge("note", "n05").Lt("note", "n15"))
	if !sameIDs(got, "j0005", "j0010") {
		t.Fatalf("unindexed range: %v", got)
	}
	// Rows without the nullable column never match a range on it.
	got = selectIDs(t, db, NewQuery().Ge("note", ""))
	if len(got) != 4 {
		t.Fatalf("absent columns matched a range: %v", got)
	}
}

// TestRangeNegativeZero checks that a -0.0 row compares equal to 0.
func TestRangeNegativeZero(t *testing.T) {
	db := OpenMemory()
	schema := Schema{Name: "m", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "f", Type: TFloat},
	}}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("m", Row{"id": "rneg", "f": math.Copysign(0, -1)}); err != nil {
			return err
		}
		return tx.Insert("m", Row{"id": "rpos", "f": 0.5})
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		rows, err := tx.Select("m", NewQuery().Ge("f", 0.0).Lt("f", 1.0))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("Ge(0) matched %d rows, want 2 (-0.0 dropped?)", len(rows))
		}
		return nil
	})
}

// TestRangeNaNConsistency checks that NaN matches no range predicate,
// as a row value or as a bound.
func TestRangeNaNConsistency(t *testing.T) {
	nan := math.NaN()
	db := OpenMemory()
	schema := Schema{Name: "m", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "f", Type: TFloat},
	}}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if err := tx.Insert("m", Row{"id": fmt.Sprintf("r%d", i), "f": float64(i)}); err != nil {
				return err
			}
		}
		return tx.Insert("m", Row{"id": "rnan", "f": nan})
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		rows, err := tx.Select("m", NewQuery().Le("f", 3.0))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("Le(3) matched %d rows (NaN leaked?)", len(rows))
		}
		for _, r := range rows {
			if r["id"] == "rnan" {
				t.Fatal("NaN row matched a range")
			}
		}
		// A NaN bound matches nothing either.
		n, _ := tx.Count("m", NewQuery().Lt("f", nan))
		if n != 0 {
			t.Fatalf("NaN bound matched %d rows", n)
		}
		return nil
	})
}

// TestRangeOnPre1678Times verifies time ranges for values outside
// UnixNano's defined span.
func TestRangeOnPre1678Times(t *testing.T) {
	db := OpenMemory()
	schema := Schema{Name: "m", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "t", Type: TTime},
		{Name: "pad", Type: TString, Indexed: true},
	}}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	times := []time.Time{
		{},
		time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	err := db.Update(func(tx *Tx) error {
		for i, tm := range times {
			if err := tx.Insert("m", Row{"id": fmt.Sprintf("r%d", i), "t": tm, "pad": "x"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		cutoff := time.Date(1750, 1, 1, 0, 0, 0, 0, time.UTC)
		rows, err := tx.Select("m", NewQuery().Lt("t", cutoff))
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range rows {
			ids = append(ids, r["id"].(string))
		}
		if !sameIDs(ids, "r0", "r1") {
			t.Fatalf("Lt(1750) over pre-1678 times = %v, want [r0 r1]", ids)
		}
		return nil
	})
}

// TestRangeOnTimeColumn runs the watchdog query shape end to end on a
// TTime column: status equality plus heartbeat cutoff.
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
			hb := base.Add(time.Duration(i) * time.Second)
			if err := tx.Insert("jobs", Row{"id": fmt.Sprintf("j%03d", i), "status": status, "heartbeat": hb}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cutoff := base.Add(6 * time.Second)
	var stale []string
	db.View(func(tx *Tx) error {
		return tx.SelectFunc("jobs", NewQuery().Eq("status", "running").Lt("heartbeat", cutoff), func(r Row) bool {
			stale = append(stale, r["id"].(string))
			return true
		})
	})
	if !sameIDs(stale, "j001", "j003", "j005") {
		t.Fatalf("stale scan: %v", stale)
	}
}

// TestRangeLimitAllocsScaleFree asserts that a Limit(1) range select
// allocates the same however deep the table: the rows the filter walks
// past cost compares, not allocations.
func TestRangeLimitAllocsScaleFree(t *testing.T) {
	fill := func(n int) *DB {
		db := OpenMemory()
		if err := db.CreateTable(rangeSchema()); err != nil {
			t.Fatal(err)
		}
		err := db.Update(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				row := Row{"id": fmt.Sprintf("j%06d", i), "status": "cold", "hb": int64(i)}
				if err := tx.Insert("jobs", row); err != nil {
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
		q := NewQuery().Ge("hb", int64(40)).Lt("hb", int64(44)).Limit(1)
		return testing.AllocsPerRun(100, func() {
			db.View(func(tx *Tx) error {
				rows, err := tx.Select("jobs", q)
				if err != nil || len(rows) != 1 {
					t.Fatalf("select: %v %d", err, len(rows))
				}
				return nil
			})
		})
	}
	small, large := measure(fill(100)), measure(fill(20000))
	if large > small {
		t.Fatalf("range Limit(1) allocs grow with table size: %v at 100 rows vs %v at 20k rows", small, large)
	}
	if large > 30 {
		t.Fatalf("range Limit(1) select allocates %v times, budget 30", large)
	}
}

// TestRangeConsistentWithFullScan fuzzes random mutations and compares
// every range query against the brute-force Where() answer, inside and
// outside transactions.
func TestRangeConsistentWithFullScan(t *testing.T) {
	db := newRangeDB(t, 0)
	rng := rand.New(rand.NewSource(99))
	check := func(tx *Tx) error {
		for trial := 0; trial < 8; trial++ {
			lo := int64(rng.Intn(100))
			hi := lo + int64(rng.Intn(40))
			indexed := NewQuery().Ge("hb", lo).Lt("hb", hi)
			brute := NewQuery().Where(func(r Row) bool {
				n := r["hb"].(int64)
				return n >= lo && n < hi
			})
			a, err := tx.Select("jobs", indexed)
			if err != nil {
				return err
			}
			b, err := tx.Select("jobs", brute)
			if err != nil {
				return err
			}
			if len(a) != len(b) {
				return fmt.Errorf("[%d,%d): indexed %d rows, brute %d", lo, hi, len(a), len(b))
			}
			for i := range a {
				if a[i]["id"] != b[i]["id"] {
					return fmt.Errorf("[%d,%d): row %d differs: %v vs %v", lo, hi, i, a[i]["id"], b[i]["id"])
				}
			}
		}
		return nil
	}
	for round := 0; round < 25; round++ {
		err := db.Update(func(tx *Tx) error {
			for i := 0; i < 15; i++ {
				id := fmt.Sprintf("j%04d", rng.Intn(150))
				if rng.Intn(4) == 0 {
					if err := tx.Delete("jobs", id); err != nil && err != ErrNotFound {
						return err
					}
					continue
				}
				row := Row{"id": id, "status": "cold", "hb": int64(rng.Intn(100))}
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

// TestSchemaUpgradeAddsNullableColumn persists a store under a v1 schema,
// reopens it and calls CreateTable with a compatible v2 schema that adds
// a nullable column: the rows must survive, range queries must see the
// new column on rewritten rows, and the upgrade must itself be durable
// across another reopen (WAL replay of the upgrade record).
func TestSchemaUpgradeAddsNullableColumn(t *testing.T) {
	dir := t.TempDir()
	v1 := Schema{Name: "jobs", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "status", Type: TString, Indexed: true},
	}}
	v2 := Schema{Name: "jobs", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "status", Type: TString, Indexed: true},
		{Name: "hb", Type: TInt, Nullable: true},
	}}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(v1); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if err := tx.Insert("jobs", Row{"id": fmt.Sprintf("j%02d", i), "status": "scheduled"}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(v2); err != nil {
		t.Fatalf("compatible upgrade rejected: %v", err)
	}
	// Incompatible changes still fail.
	bad := v2
	bad.Columns = append([]Column{}, v2.Columns...)
	bad.Columns[1].Type = TInt
	if err := db.CreateTable(bad); err == nil {
		t.Fatal("type change accepted as upgrade")
	}
	// Old rows survive and new writes use the new column.
	err = db.Update(func(tx *Tx) error {
		n, err := tx.Count("jobs", NewQuery())
		if err != nil || n != 10 {
			return fmt.Errorf("rows after upgrade: %d (%v)", n, err)
		}
		for i := 0; i < 5; i++ {
			id := fmt.Sprintf("j%02d", i)
			if err := tx.Put("jobs", Row{"id": id, "status": "running", "hb": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertUpgraded := func(db *DB) {
		t.Helper()
		db.View(func(tx *Tx) error {
			var ids []string
			err := tx.SelectFunc("jobs", NewQuery().Eq("status", "running").Lt("hb", int64(3)), func(r Row) bool {
				ids = append(ids, r["id"].(string))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(ids, "j00", "j01", "j02") {
				t.Fatalf("range over upgraded table: %v", ids)
			}
			n, _ := tx.Count("jobs", NewQuery())
			if n != 10 {
				t.Fatalf("row count %d after upgrade", n)
			}
			return nil
		})
	}
	assertUpgraded(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: WAL replay must re-apply the upgrade before the rewrites.
	db, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	assertUpgraded(db)
	// And CreateTable with v2 is now a plain no-op.
	if err := db.CreateTable(v2); err != nil {
		t.Fatalf("idempotent create after upgrade: %v", err)
	}
}

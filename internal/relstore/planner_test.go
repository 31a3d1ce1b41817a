package relstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// plannerSchema has two indexed columns so intersection plans are
// exercised, plus an unindexed payload column.
func plannerSchema() Schema {
	return Schema{
		Name: "jobs",
		Key:  "id",
		Columns: []Column{
			{Name: "id", Type: TString},
			{Name: "status", Type: TString, Indexed: true},
			{Name: "system", Type: TString, Indexed: true},
			{Name: "n", Type: TInt},
		},
	}
}

func jobRow(id, status, system string, n int64) Row {
	return Row{"id": id, "status": status, "system": system, "n": n}
}

func newPlannerDB(t *testing.T) *DB {
	t.Helper()
	db := OpenMemory()
	if err := db.CreateTable(plannerSchema()); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustIDs(t *testing.T, rows []Row) []string {
	t.Helper()
	ids := make([]string, len(rows))
	for i, r := range rows {
		ids[i] = r["id"].(string)
	}
	return ids
}

func sameIDs(a []string, b ...string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// postingFixture is one posting list for status "s" over a table's rows,
// told of every row that takes or leaves "s" as reindex tells it.
type postingFixture struct {
	rows map[string]Row
	pl   *postingList
}

func newPostingFixture() *postingFixture {
	return &postingFixture{rows: map[string]Row{}, pl: newPostingList("status", "s")}
}

// set gives id's row status v.
func (f *postingFixture) set(id, v string) {
	old, _ := f.rows[id]["status"].(string)
	f.rows[id] = Row{"id": id, "status": v}
	switch {
	case v == "s" && old != "s":
		f.pl.add(id)
	case old == "s" && v != "s":
		f.pl.remove(f.rows, id)
	}
}

// walk is every id the list's cursor yields, in order, checking that each
// comes with its row.
func (f *postingFixture) walk(t *testing.T) []string {
	t.Helper()
	var got []string
	cur := plCursor{pl: f.pl, rows: f.rows}
	for {
		id, row, ok := cur.peek()
		if !ok {
			return got
		}
		if row["id"] != id || row["status"] != "s" {
			t.Fatalf("cursor handed %q the row %v", id, row)
		}
		got = append(got, id)
		cur.next()
	}
}

// TestPostingList exercises the sorted slice over a table's rows
// directly: ordering, stale skipping, compaction and resurrection.
func TestPostingList(t *testing.T) {
	f := newPostingFixture()
	for _, id := range []string{"c", "a", "e", "b", "d"} {
		f.set(id, "s")
	}
	if f.pl.len() != 5 {
		t.Fatalf("len = %d, want 5", f.pl.len())
	}
	f.set("b", "t")
	f.set("d", "t")
	if got := f.walk(t); !sameIDs(got, "a", "c", "e") {
		t.Fatalf("iterated %v", got)
	}
	f.set("b", "s") // resurrect after removal
	if got := f.walk(t); !sameIDs(got, "a", "b", "c", "e") || f.pl.len() != 4 {
		t.Fatalf("resurrection failed: %v, len=%d", got, f.pl.len())
	}
	// Hammer moves in and out so compaction triggers repeatedly.
	rng := rand.New(rand.NewSource(7))
	live := map[string]bool{"a": true, "b": true, "c": true, "e": true}
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("k%03d", rng.Intn(50))
		if rng.Intn(2) == 0 {
			f.set(id, "s")
			live[id] = true
		} else {
			f.set(id, "t")
			delete(live, id)
		}
	}
	if f.pl.len() != len(live) {
		t.Fatalf("after churn len = %d, want %d", f.pl.len(), len(live))
	}
	prev := ""
	for _, id := range f.walk(t) {
		if id <= prev && prev != "" {
			t.Fatalf("iteration out of order: %q after %q", id, prev)
		}
		if !live[id] {
			t.Fatalf("stale id %q surfaced", id)
		}
		prev = id
	}
}

// TestPostingListReturnAcrossCompaction: an id that leaves a value and
// returns to it after the list compacted its slot away is filed again in
// order, and counted once.
func TestPostingListReturnAcrossCompaction(t *testing.T) {
	f := newPostingFixture()
	for i := 0; i < 10; i++ {
		f.set(fmt.Sprintf("k%d", i), "s")
	}
	f.set("k3", "t")
	for _, id := range []string{"k0", "k1", "k2", "k4", "k5"} {
		f.set(id, "t")
	}
	if slices.Contains(f.pl.ids, "k3") || f.pl.stale != 0 {
		t.Fatalf("fixture: no compaction dropped k3's slot: ids %v, %d stale", f.pl.ids, f.pl.stale)
	}
	f.set("k3", "s")
	if got := f.walk(t); !sameIDs(got, "k3", "k6", "k7", "k8", "k9") || f.pl.len() != 5 {
		t.Fatalf("after k3 returned: %v, len=%d", got, f.pl.len())
	}
}

// TestPostingListEmptiedAndRecreated: a value's list that empties is
// deleted from its index, and a row that takes the value again files
// under a new list that a select reads.
func TestPostingListEmptiedAndRecreated(t *testing.T) {
	db := newPlannerDB(t)
	put := func(status string) {
		t.Helper()
		if err := db.Update(func(tx *Tx) error { return tx.Put("jobs", jobRow("j1", status, "sysA", 1)) }); err != nil {
			t.Fatal(err)
		}
	}
	count := func(status string) int {
		t.Helper()
		var n int
		if err := db.View(func(tx *Tx) (err error) {
			n, err = tx.Count("jobs", NewQuery().Eq("status", status))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	idx := db.tables["jobs"].indexes["status"]
	put("scheduled")
	first := idx["scheduled"]
	put("running")
	if _, ok := idx["scheduled"]; ok || count("scheduled") != 0 || count("running") != 1 {
		t.Fatalf("emptied list kept: %v, %d scheduled, %d running", ok, count("scheduled"), count("running"))
	}
	put("scheduled")
	if pl := idx["scheduled"]; pl == nil || pl == first || pl.len() != 1 || count("scheduled") != 1 || count("running") != 0 {
		t.Fatalf("re-created list: %+v, %d scheduled, %d running", pl, count("scheduled"), count("running"))
	}
}

// TestPendingVisibleThroughIndexedSelect checks read-your-writes through
// the index-assisted path: rows inserted in the same transaction match
// indexed Eq queries before commit, and indexed updates move rows
// between value lists immediately.
func TestPendingVisibleThroughIndexedSelect(t *testing.T) {
	db := newPlannerDB(t)
	err := db.Update(func(tx *Tx) error {
		if err := tx.Put("jobs", jobRow("j1", "scheduled", "sysA", 1)); err != nil {
			return err
		}
		rows, err := tx.Select("jobs", NewQuery().Eq("status", "scheduled"))
		if err != nil {
			return err
		}
		if !sameIDs(mustIDs(t, rows), "j1") {
			return fmt.Errorf("pending insert invisible to indexed select: %v", rows)
		}
		// Move the pending row to another status: old value must stop
		// matching, new value must match.
		if err := tx.Put("jobs", jobRow("j1", "running", "sysA", 1)); err != nil {
			return err
		}
		rows, _ = tx.Select("jobs", NewQuery().Eq("status", "scheduled"))
		if len(rows) != 0 {
			return fmt.Errorf("stale status still matches: %v", rows)
		}
		rows, _ = tx.Select("jobs", NewQuery().Eq("status", "running"))
		if !sameIDs(mustIDs(t, rows), "j1") {
			return fmt.Errorf("new status does not match: %v", rows)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPendingOverwriteOfCommittedIndexedRow checks that an uncommitted
// overwrite hides the committed index entry: the committed posting list
// still holds the id, but the effective row decides.
func TestPendingOverwriteOfCommittedIndexedRow(t *testing.T) {
	db := newPlannerDB(t)
	if err := db.Update(func(tx *Tx) error {
		return tx.Put("jobs", jobRow("j1", "scheduled", "sysA", 1))
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Update(func(tx *Tx) error {
		if err := tx.Put("jobs", jobRow("j1", "running", "sysA", 2)); err != nil {
			return err
		}
		rows, _ := tx.Select("jobs", NewQuery().Eq("status", "scheduled"))
		if len(rows) != 0 {
			return fmt.Errorf("overwritten row still matches old indexed value: %v", rows)
		}
		rows, _ = tx.Select("jobs", NewQuery().Eq("status", "running"))
		if !sameIDs(mustIDs(t, rows), "j1") {
			return fmt.Errorf("overwrite invisible: %v", rows)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiEqIntersection checks that two indexed Eq conditions
// intersect correctly whichever posting list is smaller, including with
// an unindexed equality stacked on top.
func TestMultiEqIntersection(t *testing.T) {
	db := newPlannerDB(t)
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			status := "scheduled"
			if i%10 == 0 {
				status = "running"
			}
			sys := fmt.Sprintf("sys%d", i%4)
			if err := tx.Put("jobs", jobRow(fmt.Sprintf("j%03d", i), status, sys, int64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		// status=running (10 rows) ∩ system=sys0 (25 rows): multiples of
		// 10 that are ≡ 0 mod 4, i.e. multiples of 20 → 5 rows.
		rows, err := tx.Select("jobs", NewQuery().Eq("status", "running").Eq("system", "sys0"))
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(mustIDs(t, rows), "j000", "j020", "j040", "j060", "j080") {
			t.Fatalf("intersection = %v", mustIDs(t, rows))
		}
		// Same with the conditions swapped: plan must be order-invariant.
		swapped, _ := tx.Select("jobs", NewQuery().Eq("system", "sys0").Eq("status", "running"))
		if !sameIDs(mustIDs(t, swapped), mustIDs(t, rows)...) {
			t.Fatalf("swapped order differs: %v", mustIDs(t, swapped))
		}
		// Stack an unindexed equality on top.
		rows, _ = tx.Select("jobs", NewQuery().Eq("status", "running").Eq("system", "sys0").Eq("n", int64(40)))
		if !sameIDs(mustIDs(t, rows), "j040") {
			t.Fatalf("with unindexed Eq: %v", mustIDs(t, rows))
		}
		// An Eq on a value with no posting list matches nothing.
		rows, _ = tx.Select("jobs", NewQuery().Eq("status", "nonexistent").Eq("system", "sys0"))
		if len(rows) != 0 {
			t.Fatalf("missing value matched %v", mustIDs(t, rows))
		}
		return nil
	})
}

// TestPlanDrivesFromSmallestList pins which posting list drives a
// two-Eq scan. Every row is re-checked by matchesQuery, so answers are
// the same whichever list drives — only the cost differs (a claim walks
// the whole scheduled queue instead of one system's share), which is why
// this asks plan directly instead of timing a Select.
func TestPlanDrivesFromSmallestList(t *testing.T) {
	db := newPlannerDB(t)
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 5010; i++ {
			status, sys := "scheduled", "big"
			if i%501 == 0 {
				status, sys = "running", "small"
			}
			if err := tx.Put("jobs", jobRow(fmt.Sprintf("j%04d", i), status, sys, 0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tbl := db.tables["jobs"]
	small, big := tbl.indexes["system"]["small"], tbl.indexes["status"]["scheduled"]
	if small.len() != 10 || big.len() != 5000 {
		t.Fatalf("fixture: %d rows under small, %d under scheduled", small.len(), big.len())
	}
	for _, q := range []*Query{
		NewQuery().Eq("system", "small").Eq("status", "scheduled"),
		NewQuery().Eq("status", "scheduled").Eq("system", "small"),
	} {
		if driver := tbl.plan(q); driver.pl != small {
			t.Fatalf("driver walks a %d-row list, want the 10-row one", driver.pl.len())
		}
	}
	// An Eq no committed row satisfies: the empty driver. So does an Eq
	// that gives an indexed (string) column another type.
	for _, q := range []*Query{
		NewQuery().Eq("status", "scheduled").Eq("system", "absent"),
		NewQuery().Eq("status", "scheduled").Eq("system", int64(0)),
	} {
		driver := tbl.plan(q)
		if _, _, ok := driver.peek(); ok || driver.pl != nil {
			t.Fatalf("absent value: driver %+v", driver)
		}
	}
	db.View(func(tx *Tx) error {
		if n, err := tx.Count("jobs", NewQuery().Eq("status", []byte("scheduled"))); err != nil || n != 0 {
			t.Fatalf("non-string Eq on an indexed column matched %d rows (%v)", n, err)
		}
		return nil
	})
}

// TestLimitWithPendingRows checks limit push-down across the merge of
// committed and pending rows: the first rows in key order win, wherever
// they come from.
func TestLimitWithPendingRows(t *testing.T) {
	db := newPlannerDB(t)
	if err := db.Update(func(tx *Tx) error {
		if err := tx.Put("jobs", jobRow("j2", "scheduled", "sysA", 2)); err != nil {
			return err
		}
		return tx.Put("jobs", jobRow("j4", "scheduled", "sysA", 4))
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Update(func(tx *Tx) error {
		// Pending j1 sorts before committed j2; a pending move of j2 to
		// another status removes the committed candidate.
		if err := tx.Put("jobs", jobRow("j1", "scheduled", "sysA", 1)); err != nil {
			return err
		}
		rows, err := tx.Select("jobs", NewQuery().Eq("status", "scheduled").Limit(2))
		if err != nil {
			return err
		}
		if !sameIDs(mustIDs(t, rows), "j1", "j2") {
			return fmt.Errorf("limit 2 = %v, want [j1 j2]", mustIDs(t, rows))
		}
		if err := tx.Put("jobs", jobRow("j2", "running", "sysA", 2)); err != nil {
			return err
		}
		rows, _ = tx.Select("jobs", NewQuery().Eq("status", "scheduled").Limit(2))
		if !sameIDs(mustIDs(t, rows), "j1", "j4") {
			return fmt.Errorf("limit 2 after the move = %v, want [j1 j4]", mustIDs(t, rows))
		}
		rows, _ = tx.Select("jobs", NewQuery().Eq("status", "scheduled").Limit(1))
		if !sameIDs(mustIDs(t, rows), "j1") {
			return fmt.Errorf("limit 1 = %v, want [j1]", mustIDs(t, rows))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSelectFuncStreamsAndStops checks the streaming iterator: key
// order, early stop, and agreement with Select.
func TestSelectFuncStreamsAndStops(t *testing.T) {
	db := newPlannerDB(t)
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 20; i++ {
			if err := tx.Put("jobs", jobRow(fmt.Sprintf("j%02d", i), "scheduled", "sysA", int64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		var seen []string
		err := tx.SelectFunc("jobs", NewQuery().Eq("status", "scheduled"), func(r Row) bool {
			seen = append(seen, r["id"].(string))
			return len(seen) < 3
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(seen, "j00", "j01", "j02") {
			t.Fatalf("streamed %v", seen)
		}
		return nil
	})
}

// TestCountConsistentWithSelect fuzzes random mutations and checks that
// Count always equals len(Select) for a mix of plans.
func TestCountConsistentWithSelect(t *testing.T) {
	db := newPlannerDB(t)
	rng := rand.New(rand.NewSource(42))
	statuses := []string{"scheduled", "running", "finished"}
	systems := []string{"sysA", "sysB"}
	for round := 0; round < 30; round++ {
		err := db.Update(func(tx *Tx) error {
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("j%03d", rng.Intn(200))
				row := jobRow(id, statuses[rng.Intn(3)], systems[rng.Intn(2)], int64(rng.Intn(100)))
				if err := tx.Put("jobs", row); err != nil {
					return err
				}
			}
			// Check inside the transaction (pending rows in play)...
			return checkCounts(tx, statuses, systems)
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// ...and after commit.
		if err := db.View(func(tx *Tx) error { return checkCounts(tx, statuses, systems) }); err != nil {
			t.Fatalf("round %d post-commit: %v", round, err)
		}
	}
}

func checkCounts(tx *Tx, statuses, systems []string) error {
	queries := []*Query{NewQuery()}
	for _, st := range statuses {
		queries = append(queries, NewQuery().Eq("status", st))
		for _, sys := range systems {
			queries = append(queries, NewQuery().Eq("status", st).Eq("system", sys))
		}
	}
	queries = append(queries, NewQuery().Eq("n", int64(50)))
	for qi, q := range queries {
		rows, err := tx.Select("jobs", q)
		if err != nil {
			return err
		}
		n, err := tx.Count("jobs", q)
		if err != nil {
			return err
		}
		if n != len(rows) {
			return fmt.Errorf("query %d: Count=%d, len(Select)=%d", qi, n, len(rows))
		}

		for i := 1; i < len(rows); i++ {
			if rows[i-1]["id"].(string) >= rows[i]["id"].(string) {
				return fmt.Errorf("query %d: rows out of key order", qi)
			}
		}
	}
	return nil
}

// TestIndexedLimitAllocsScaleFree asserts the acceptance criterion that
// a Limit(1) select on an indexed column neither sorts nor clones the
// candidate set: its allocation count is a small constant independent
// of how many rows match.
func TestIndexedLimitAllocsScaleFree(t *testing.T) {
	fill := func(n int) *DB {
		db := OpenMemory()
		if err := db.CreateTable(plannerSchema()); err != nil {
			t.Fatal(err)
		}
		err := db.Update(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				if err := tx.Put("jobs", jobRow(fmt.Sprintf("j%06d", i), "scheduled", "sysA", int64(i))); err != nil {
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
		q := NewQuery().Eq("status", "scheduled").Limit(1)
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
		t.Fatalf("Limit(1) allocs grow with table size: %v at 100 rows vs %v at 20k rows", small, large)
	}
	// The absolute budget: tx + query bookkeeping + the result slice.
	// The exact number is implementation detail; 25 is an
	// order-of-magnitude guard against reintroducing full-candidate
	// materialisation.
	if large > 25 {
		t.Fatalf("Limit(1) indexed select allocates %v times, budget 25", large)
	}
}

// TestWALFailurePoisonsStore simulates a WAL write failure (closing the
// log file out from under the writer) and asserts the store poisons
// itself: the failing Update reports the error, and later writes and
// compactions refuse to run so the divergent in-memory state can never
// be snapshotted into durability.
func TestWALFailurePoisonsStore(t *testing.T) {
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(plannerSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.Put("jobs", jobRow("j1", "scheduled", "sysA", 1))
	}); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close() // make the next flush fail
	err = db.Update(func(tx *Tx) error {
		return tx.Put("jobs", jobRow("j2", "scheduled", "sysA", 2))
	})
	if err == nil {
		t.Fatal("Update after WAL failure should report the error")
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.Put("jobs", jobRow("j3", "scheduled", "sysA", 3))
	}); err == nil {
		t.Fatal("poisoned store accepted a write")
	}
	if err := db.Compact(); err == nil {
		t.Fatal("poisoned store accepted a compaction")
	}
}

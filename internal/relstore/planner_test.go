package relstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
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

// TestPostingList exercises the sorted-slice + live-set structure
// directly: ordering, stale skipping, compaction and resurrection.
func TestPostingList(t *testing.T) {
	p := newPostingList()
	for _, id := range []string{"c", "a", "e", "b", "d"} {
		p.add(id)
	}
	p.add("c") // duplicate add is a no-op
	if p.len() != 5 {
		t.Fatalf("len = %d, want 5", p.len())
	}
	p.remove("b")
	p.remove("d")
	p.remove("x") // absent remove is a no-op
	var got []string
	cur := plCursor{pl: p}
	for {
		id, ok := cur.peek()
		if !ok {
			break
		}
		got = append(got, id)
		cur.next()
	}
	if !sameIDs(got, "a", "c", "e") {
		t.Fatalf("iterated %v", got)
	}
	p.add("b") // resurrect after removal
	if !p.contains("b") || p.len() != 4 {
		t.Fatalf("resurrection failed: len=%d", p.len())
	}
	// Hammer adds/removes so compaction triggers repeatedly.
	rng := rand.New(rand.NewSource(7))
	live := map[string]bool{"a": true, "b": true, "c": true, "e": true}
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("k%03d", rng.Intn(50))
		if rng.Intn(2) == 0 {
			p.add(id)
			live[id] = true
		} else {
			p.remove(id)
			delete(live, id)
		}
	}
	want := 0
	for range live {
		want++
	}
	if p.len() != want {
		t.Fatalf("after churn len = %d, want %d", p.len(), want)
	}
	prev := ""
	cur = plCursor{pl: p}
	for {
		id, ok := cur.peek()
		if !ok {
			break
		}
		if id <= prev && prev != "" {
			t.Fatalf("iteration out of order: %q after %q", id, prev)
		}
		if !live[id] {
			t.Fatalf("stale id %q surfaced", id)
		}
		prev = id
		cur.next()
	}
}

// TestPendingVisibleThroughIndexedSelect checks read-your-writes through
// the index-assisted path: rows inserted in the same transaction match
// indexed Eq queries before commit, and indexed updates move rows
// between value lists immediately.
func TestPendingVisibleThroughIndexedSelect(t *testing.T) {
	db := newPlannerDB(t)
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("jobs", jobRow("j1", "scheduled", "sysA", 1)); err != nil {
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
		return tx.Insert("jobs", jobRow("j1", "scheduled", "sysA", 1))
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

// TestTombstoneHidesCommittedRow checks that a pending delete hides a
// committed row from indexed and full scans, within the transaction and
// after commit.
func TestTombstoneHidesCommittedRow(t *testing.T) {
	db := newPlannerDB(t)
	if err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("jobs", jobRow("j1", "scheduled", "sysA", 1)); err != nil {
			return err
		}
		return tx.Insert("jobs", jobRow("j2", "scheduled", "sysA", 2))
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Update(func(tx *Tx) error {
		if err := tx.Delete("jobs", "j1"); err != nil {
			return err
		}
		rows, _ := tx.Select("jobs", NewQuery().Eq("status", "scheduled"))
		if !sameIDs(mustIDs(t, rows), "j2") {
			return fmt.Errorf("tombstone leaked through indexed select: %v", mustIDs(t, rows))
		}
		rows, _ = tx.Select("jobs", NewQuery())
		if !sameIDs(mustIDs(t, rows), "j2") {
			return fmt.Errorf("tombstone leaked through full scan: %v", mustIDs(t, rows))
		}
		n, _ := tx.Count("jobs", NewQuery().Eq("status", "scheduled"))
		if n != 1 {
			return fmt.Errorf("Count through tombstone = %d, want 1", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		rows, _ := tx.Select("jobs", NewQuery().Eq("status", "scheduled"))
		if !sameIDs(mustIDs(t, rows), "j2") {
			t.Fatalf("post-commit: %v", mustIDs(t, rows))
		}
		return nil
	})
}

// TestMultiEqIntersection checks that two indexed Eq conditions
// intersect correctly whichever posting list is smaller, including with
// a non-indexed predicate stacked on top.
func TestMultiEqIntersection(t *testing.T) {
	db := newPlannerDB(t)
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			status := "scheduled"
			if i%10 == 0 {
				status = "running"
			}
			sys := fmt.Sprintf("sys%d", i%4)
			if err := tx.Insert("jobs", jobRow(fmt.Sprintf("j%03d", i), status, sys, int64(i))); err != nil {
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
		// Stack an unindexed predicate on top.
		rows, _ = tx.Select("jobs", NewQuery().Eq("status", "running").Eq("system", "sys0").
			Where(func(r Row) bool { return r["n"].(int64) >= 40 }))
		if !sameIDs(mustIDs(t, rows), "j040", "j060", "j080") {
			t.Fatalf("with predicate: %v", mustIDs(t, rows))
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
			if err := tx.Insert("jobs", jobRow(fmt.Sprintf("j%04d", i), status, sys, 0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tbl := db.tables["jobs"]
	small, big := tbl.indexes["system"]["s:small"], tbl.indexes["status"]["s:scheduled"]
	if small.len() != 10 || big.len() != 5000 {
		t.Fatalf("fixture: %d rows under small, %d under scheduled", small.len(), big.len())
	}
	for _, q := range []*Query{
		NewQuery().Eq("system", "small").Eq("status", "scheduled"),
		NewQuery().Eq("status", "scheduled").Eq("system", "small"),
	} {
		driver, probes := tbl.plan(q)
		if driver.pl != small {
			t.Fatalf("driver walks a %d-row list, want the 10-row one", driver.pl.len())
		}
		if len(probes) != 1 || probes[0] != big {
			t.Fatalf("probes = %d list(s), want exactly the 5000-row one", len(probes))
		}
	}
	// An Eq no committed row satisfies: the empty driver, nothing probed.
	driver, probes := tbl.plan(NewQuery().Eq("status", "scheduled").Eq("system", "absent"))
	if _, ok := driver.peek(); ok || driver.pl != nil || probes != nil {
		t.Fatalf("absent value: driver %+v, %d probe(s)", driver, len(probes))
	}
}

// TestLimitWithPendingRows checks limit push-down across the merge of
// committed and pending rows: the first rows in key order win, wherever
// they come from.
func TestLimitWithPendingRows(t *testing.T) {
	db := newPlannerDB(t)
	if err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("jobs", jobRow("j2", "scheduled", "sysA", 2)); err != nil {
			return err
		}
		return tx.Insert("jobs", jobRow("j4", "scheduled", "sysA", 4))
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Update(func(tx *Tx) error {
		// Pending j1 sorts before committed j2; pending delete of j2
		// removes the committed candidate.
		if err := tx.Insert("jobs", jobRow("j1", "scheduled", "sysA", 1)); err != nil {
			return err
		}
		rows, err := tx.Select("jobs", NewQuery().Eq("status", "scheduled").Limit(2))
		if err != nil {
			return err
		}
		if !sameIDs(mustIDs(t, rows), "j1", "j2") {
			return fmt.Errorf("limit 2 = %v, want [j1 j2]", mustIDs(t, rows))
		}
		if err := tx.Delete("jobs", "j2"); err != nil {
			return err
		}
		rows, _ = tx.Select("jobs", NewQuery().Eq("status", "scheduled").Limit(2))
		if !sameIDs(mustIDs(t, rows), "j1", "j4") {
			return fmt.Errorf("limit 2 after delete = %v, want [j1 j4]", mustIDs(t, rows))
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
			if err := tx.Insert("jobs", jobRow(fmt.Sprintf("j%02d", i), "scheduled", "sysA", int64(i))); err != nil {
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
				if rng.Intn(4) == 0 {
					if err := tx.Delete("jobs", id); err != nil && err != ErrNotFound {
						return err
					}
					continue
				}
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
	queries = append(queries, NewQuery().Where(func(r Row) bool { return r["n"].(int64) < 50 }))
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
				if err := tx.Insert("jobs", jobRow(fmt.Sprintf("j%06d", i), "scheduled", "sysA", int64(i))); err != nil {
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
	// The absolute budget: tx + query bookkeeping + one clone. The exact
	// number is implementation detail; 25 is an order-of-magnitude guard
	// against reintroducing full-candidate materialisation.
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
		return tx.Insert("jobs", jobRow("j1", "scheduled", "sysA", 1))
	}); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close() // make the next flush fail
	err = db.Update(func(tx *Tx) error {
		return tx.Insert("jobs", jobRow("j2", "scheduled", "sysA", 2))
	})
	if err == nil {
		t.Fatal("Update after WAL failure should report the error")
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.Insert("jobs", jobRow("j3", "scheduled", "sysA", 3))
	}); err == nil {
		t.Fatal("poisoned store accepted a write")
	}
	if err := db.Compact(); err == nil {
		t.Fatal("poisoned store accepted a compaction")
	}
}

// TestGroupCommitConcurrentDurability drives many concurrent committers
// through the group-commit path on a durable store and verifies every
// acknowledged write survives reopen.
func TestGroupCommitConcurrentDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(plannerSchema()); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("j%d-%d", w, i)
				err := db.Update(func(tx *Tx) error {
					return tx.Insert("jobs", jobRow(id, "scheduled", "sysA", int64(i)))
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d fsynced commits in %v", writers*perWriter, time.Since(start))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.View(func(tx *Tx) error {
		n, err := tx.Count("jobs", NewQuery())
		if err != nil {
			t.Fatal(err)
		}
		if n != writers*perWriter {
			t.Fatalf("recovered %d rows, want %d", n, writers*perWriter)
		}
		n, _ = tx.Count("jobs", NewQuery().Eq("status", "scheduled"))
		if n != writers*perWriter {
			t.Fatalf("index recovered %d rows, want %d", n, writers*perWriter)
		}
		return nil
	})
}

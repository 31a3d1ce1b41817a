package relstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// usersSchema is a small table used across the tests.
func usersSchema() Schema {
	return Schema{
		Name: "users",
		Key:  "id",
		Columns: []Column{
			{Name: "id", Type: TString},
			{Name: "name", Type: TString, Indexed: true},
			{Name: "age", Type: TInt},
			{Name: "score", Type: TInt, Nullable: true},
			{Name: "admin", Type: TBool},
			{Name: "avatar", Type: TBytes, Nullable: true},
			{Name: "created", Type: TTime},
		},
	}
}

func userRow(id, name string, age int64) Row {
	return Row{
		"id":      id,
		"name":    name,
		"age":     age,
		"admin":   false,
		"created": time.Date(2020, 3, 30, 12, 0, 0, 0, time.UTC),
	}
}

func TestSchemaCheck(t *testing.T) {
	s := usersSchema()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{},                     // no name
		{Name: "t"},            // no key
		{Name: "t", Key: "id"}, // key column missing
		{Name: "t", Key: "id", Columns: []Column{{Name: "id", Type: TInt}}},                                // key not string
		{Name: "t", Key: "id", Columns: []Column{{Name: "id", Type: TString, Nullable: true}}},             // nullable key
		{Name: "t", Key: "id", Columns: []Column{{Name: "id", Type: TString}, {Name: "id", Type: TInt}}},   // dup col
		{Name: "t", Key: "id", Columns: []Column{{Name: "id", Type: TString}, {Name: "x", Type: "blob"}}},  // bad type
		{Name: "t", Key: "id", Columns: []Column{{Name: "id", Type: TString}, {Name: "", Type: TString}}},  // unnamed
		{Name: "t", Key: "id", Columns: []Column{{Name: "id", Type: TString}, {Name: "x", Type: "float"}}}, // retired type
		{Name: "t", Key: "id", Columns: []Column{{Name: "id", Type: TString}, {Name: "x", Type: TInt, Indexed: true}}},
		{Name: "t", Key: "id", Columns: []Column{{Name: "id", Type: TString}, {Name: "x", Type: TTime, Indexed: true}}},
	}
	for i, s := range bad {
		if err := s.Check(); err == nil {
			t.Errorf("case %d: expected schema error", i)
		}
	}
}

// has reports whether tx sees a row with the given key.
func has(tx *Tx, table, id string) bool {
	_, err := tx.Get(table, id)
	return err == nil
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCRUDRoundTrip(t *testing.T) {
	db := newTestDB(t)
	row := userRow("u1", "ada", 36)
	row["score"] = int64(99)
	row["avatar"] = []byte{1, 2, 3}
	if err := db.Update(func(tx *Tx) error { return tx.Put("users", row) }); err != nil {
		t.Fatal(err)
	}
	err := db.View(func(tx *Tx) error {
		got, err := tx.Get("users", "u1")
		if err != nil {
			return err
		}
		if got["name"] != "ada" || got["age"] != int64(36) || got["score"] != int64(99) {
			return fmt.Errorf("bad row: %v", got)
		}
		if b := got["avatar"].([]byte); len(b) != 3 || b[0] != 1 {
			return fmt.Errorf("bad bytes: %v", b)
		}
		if ts := got["created"].(time.Time); !ts.Equal(time.Date(2020, 3, 30, 12, 0, 0, 0, time.UTC)) {
			return fmt.Errorf("bad time: %v", ts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Update via Put: the row is replaced, absent columns included.
	row2 := userRow("u1", "ada", 37)
	if err := db.Update(func(tx *Tx) error { return tx.Put("users", row2) }); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		got, err := tx.Get("users", "u1")
		if err != nil || got["age"] != int64(37) {
			t.Errorf("after overwrite: %v, %v", got, err)
		}
		if _, ok := got["score"]; ok {
			t.Errorf("overwrite kept a column the new row lacks: %v", got)
		}
		if _, err := tx.Get("users", "u2"); err != ErrNotFound {
			t.Errorf("missing row: expected ErrNotFound, got %v", err)
		}
		return nil
	})
}

func TestRollbackOnError(t *testing.T) {
	db := newTestDB(t)
	boom := fmt.Errorf("boom")
	err := db.Update(func(tx *Tx) error {
		if err := tx.Put("users", userRow("u9", "x", 1)); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("expected boom, got %v", err)
	}
	db.View(func(tx *Tx) error {
		if has(tx, "users", "u9") {
			t.Error("rolled-back insert is visible")
		}
		return nil
	})
}

func TestReadYourWrites(t *testing.T) {
	db := newTestDB(t)
	err := db.Update(func(tx *Tx) error {
		if err := tx.Put("users", userRow("u1", "a", 1)); err != nil {
			return err
		}
		got, err := tx.Get("users", "u1")
		if err != nil {
			return fmt.Errorf("read-your-writes Get: %w", err)
		}
		if got["name"] != "a" {
			return fmt.Errorf("bad row: %v", got)
		}
		// Overwrite within the same transaction.
		return tx.Put("users", userRow("u1", "b", 2))
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		got, err := tx.Get("users", "u1")
		if err != nil {
			return err
		}
		if got["name"] != "b" {
			t.Errorf("final row = %v", got)
		}
		return nil
	})
}

func TestValidationErrors(t *testing.T) {
	db := newTestDB(t)
	cases := []Row{
		{"name": "x", "age": int64(1), "admin": false, "created": time.Now()},                        // no key
		{"id": "u", "name": "x", "age": 1, "admin": false, "created": time.Now()},                    // int not int64
		{"id": "u", "name": "x", "age": int64(1), "admin": false},                                    // missing created
		{"id": "u", "name": "x", "age": int64(1), "admin": false, "created": time.Now(), "ghost": 1}, // unknown col
	}
	for i, row := range cases {
		err := db.Update(func(tx *Tx) error { return tx.Put("users", row) })
		if err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSelectWithIndexAndPredicates(t *testing.T) {
	db := newTestDB(t)
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			name := "even"
			if i%2 == 1 {
				name = "odd"
			}
			if err := tx.Put("users", userRow(fmt.Sprintf("u%02d", i), name, int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		rows, err := tx.Select("users", NewQuery().Eq("name", "even"))
		if err != nil {
			return err
		}
		if len(rows) != 5 {
			t.Fatalf("indexed Eq returned %d rows", len(rows))
		}
		// Sorted by id.
		if rows[0]["id"] != "u00" || rows[4]["id"] != "u08" {
			t.Fatalf("rows not sorted: %v %v", rows[0]["id"], rows[4]["id"])
		}
		var kept []string
		err = tx.SelectFunc("users", NewQuery().Eq("name", "odd"), func(r Row) bool {
			if r["age"].(int64) >= 5 {
				kept = append(kept, r["id"].(string))
			}
			return len(kept) < 2
		})
		if err != nil {
			return err
		}
		if !sameIDs(kept, "u05", "u07") {
			t.Fatalf("filtered select kept %v", kept)
		}
		n, err := tx.Count("users", NewQuery())
		if err != nil {
			return err
		}
		if n != 10 {
			t.Fatalf("Count = %d", n)
		}
		return nil
	})
}

func TestSelectSeesPendingWrites(t *testing.T) {
	db := newTestDB(t)
	db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u1", "old", 1)) })
	err := db.Update(func(tx *Tx) error {
		// Update u1's indexed column, insert a new matching row and check
		// the index-assisted path sees both states correctly.
		row := userRow("u1", "new", 1)
		if err := tx.Put("users", row); err != nil {
			return err
		}
		if err := tx.Put("users", userRow("u2", "new", 2)); err != nil {
			return err
		}
		rows, err := tx.Select("users", NewQuery().Eq("name", "new"))
		if err != nil {
			return err
		}
		if len(rows) != 2 {
			return fmt.Errorf("pending-aware select returned %d rows", len(rows))
		}
		rows, err = tx.Select("users", NewQuery().Eq("name", "old"))
		if err != nil {
			return err
		}
		if len(rows) != 0 {
			return fmt.Errorf("stale index row still visible: %v", rows)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNextSeqSequence(t *testing.T) {
	db := newTestDB(t)
	var first, second int64
	db.Update(func(tx *Tx) error {
		first, _ = tx.NextSeq("users")
		second, _ = tx.NextSeq("users")
		return nil
	})
	if first != 1 || second != 2 {
		t.Fatalf("sequence = %d, %d", first, second)
	}
	// Sequence must not move on rollback (TestStoreForms/reopened checks
	// that it survives a reopen).
	db.Update(func(tx *Tx) error {
		tx.NextSeq("users")
		return fmt.Errorf("rollback")
	})
	var third int64
	db.Update(func(tx *Tx) error {
		third, _ = tx.NextSeq("users")
		return nil
	})
	if third != 3 {
		t.Fatalf("third value = %d, want 3", third)
	}
}

// lastSegmentPath returns the path of the highest-numbered WAL segment.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal segments in %s (%v)", dir, err)
	}
	return filepath.Join(dir, segmentName(seqs[len(seqs)-1]))
}

func TestTornWALTailIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(usersSchema())
	db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u1", "a", 1)) })
	db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u2", "b", 2)) })
	db.Close()

	// Simulate a crash mid-append: chop bytes off the last record of the
	// newest segment.
	walPath := lastSegmentPath(t, dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		if !has(tx, "users", "u1") {
			t.Error("u1 lost")
		}
		if has(tx, "users", "u2") {
			t.Error("torn u2 should be discarded")
		}
		return nil
	})
	// The store must accept new writes after recovery.
	if err := db2.Update(func(tx *Tx) error { return tx.Put("users", userRow("u3", "c", 3)) }); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptWALChecksumDiscardsTail(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, nil)
	db.CreateTable(usersSchema())
	db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u1", "a", 1)) })
	db.Close()

	walPath := lastSegmentPath(t, dir)
	data, _ := os.ReadFile(walPath)
	data[len(data)-1] ^= 0xFF // flip a payload byte of the last record
	os.WriteFile(walPath, data, 0o644)

	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		if has(tx, "users", "u1") {
			t.Error("corrupt record should be discarded")
		}
		return nil
	})
}

func TestCreateTableIdempotentAndConflict(t *testing.T) {
	db := newTestDB(t)
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatalf("idempotent create failed: %v", err)
	}
	other := usersSchema()
	other.Columns = other.Columns[:3]
	if err := db.CreateTable(other); err == nil {
		t.Fatal("conflicting schema accepted")
	}
}

func TestUnknownTableErrors(t *testing.T) {
	db := newTestDB(t)
	err := db.View(func(tx *Tx) error {
		_, err := tx.Get("ghosts", "x")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("expected unknown table error, got %v", err)
	}
}

func TestReadOnlyTxRejectsWrites(t *testing.T) {
	db := newTestDB(t)
	db.View(func(tx *Tx) error {
		if err := tx.Put("users", userRow("u", "x", 1)); err == nil {
			t.Error("Put allowed in View")
		}
		if _, err := tx.NextSeq("users"); err == nil {
			t.Error("NextSeq allowed in View")
		}
		return nil
	})
}

func TestOpenMemory(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u1", "m", 1)) }); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Tables != 1 || st.Rows != 1 || st.WALSizeB != 0 {
		t.Fatalf("memory stats = %+v", st)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("memory compact should be a no-op: %v", err)
	}
}

func TestTablesSorted(t *testing.T) {
	db := OpenMemory()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s := Schema{Name: n, Key: "id", Columns: []Column{{Name: "id", Type: TString}}}
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Tables()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tables() = %v", got)
		}
	}
}

// TestCreateTableRefusesAnotherSchema: CreateTable takes the store's
// whole schema list. Tables the store holds under an equal schema are
// left as they are and new ones are logged, durably across a reopen; a
// stored table whose schema differs refuses the whole call with
// ErrLegacyFormat, and nothing is written or created — not even a new
// table listed ahead of the differing one.
func TestCreateTableRefusesAnotherSchema(t *testing.T) {
	dir := t.TempDir()
	a := Schema{Name: "a", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "status", Type: TString, Indexed: true},
	}}
	b := Schema{Name: "b", Key: "id", Columns: []Column{{Name: "id", Type: TString}}}
	wider := a
	wider.Columns = append(slices.Clone(a.Columns), Column{Name: "hb", Type: TInt, Nullable: true})
	relaxed := a
	relaxed.Columns = slices.Clone(a.Columns)
	relaxed.Columns[1].Nullable = true
	open := func() *DB {
		t.Helper()
		db, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	written := func(db *DB) int64 {
		t.Helper()
		pos, _, err := db.ShipPosition()
		if err != nil {
			t.Fatal(err)
		}
		return pos.Durable
	}
	db := open()
	if err := db.CreateTable(a); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.Put("a", Row{"id": "x", "status": "s"}) }); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db = open()
	for _, other := range []Schema{wider, relaxed} {
		if err := db.CreateTable(b, other); !errors.Is(err, ErrLegacyFormat) {
			t.Fatalf("CreateTable over another schema: %v, want ErrLegacyFormat", err)
		}
	}
	if got := db.Tables(); !slices.Equal(got, []string{"a"}) || written(db) != 0 {
		t.Fatalf("refused calls left tables %v and wrote %d bytes", got, written(db))
	}
	if err := db.CreateTable(a, b); err != nil || !slices.Equal(db.Tables(), []string{"a", "b"}) || written(db) == 0 {
		t.Fatalf("CreateTable(a, b): %v, tables %v, %d bytes", err, db.Tables(), written(db))
	}
	db.Close()

	db = open()
	defer db.Close()
	if err := db.CreateTable(a, b); err != nil || written(db) != 0 {
		t.Fatalf("CreateTable of the stored schemas: %v, %d bytes written", err, written(db))
	}
	if err := db.View(func(tx *Tx) error {
		_, err := tx.Get("a", "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

package relstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// twoTables opens a memory store with tables "aa" and "bb".
func twoTables(t *testing.T) *DB {
	t.Helper()
	db := OpenMemory()
	for _, name := range []string{"aa", "bb"} {
		s := usersSchema()
		s.Name = name
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestUpdateCallbackRunsOnce pins the one-writer contract on the
// interleaving that is hardest on any finer-grained locking: two
// transactions touch the same two tables in opposite orders, the first
// parked inside its callback. Each callback runs exactly once, both
// commit, nothing deadlocks.
func TestUpdateCallbackRunsOnce(t *testing.T) {
	db := twoTables(t)

	var holderRuns, otherRuns atomic.Int32
	holdingA := make(chan struct{})
	releaseA := make(chan struct{})
	holder := make(chan error, 1)
	go func() {
		holder <- db.Update(func(tx *Tx) error {
			holderRuns.Add(1)
			if err := tx.Put("aa", userRow("u1", "holder", 1)); err != nil {
				return err
			}
			close(holdingA)
			<-releaseA
			return tx.Put("bb", userRow("u1", "holder", 1))
		})
	}()
	<-holdingA

	other := make(chan error, 1)
	go func() {
		other <- db.Update(func(tx *Tx) error {
			otherRuns.Add(1)
			if err := tx.Put("bb", userRow("u2", "other", 2)); err != nil {
				return err
			}
			return tx.Put("aa", userRow("u2", "other", 2))
		})
	}()
	// A goroutine waiting for the store lock cannot be observed, so give
	// the second Update time to get there before the holder moves on. The
	// assertions hold whatever the timing; the pause only makes the
	// opposite-order overlap the likely schedule.
	time.Sleep(20 * time.Millisecond)
	close(releaseA)

	for name, ch := range map[string]chan error{"holder": holder, "other": other} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s update: %v", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("deadlock: %s update never returned", name)
		}
	}
	if h, o := holderRuns.Load(), otherRuns.Load(); h != 1 || o != 1 {
		t.Fatalf("callbacks ran %d and %d times, want once each", h, o)
	}
	err := db.View(func(tx *Tx) error {
		for _, probe := range []struct{ tbl, id string }{{"aa", "u1"}, {"bb", "u1"}, {"aa", "u2"}, {"bb", "u2"}} {
			if _, err := tx.Get(probe.tbl, probe.id); err != nil {
				return fmt.Errorf("%s/%s: %w", probe.tbl, probe.id, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewIsOneCut: a plain View reading two tables, one operation each,
// must never observe a two-table commit half-applied.
func TestViewIsOneCut(t *testing.T) {
	db := twoTables(t)
	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Update(func(tx *Tx) error {
				if err := tx.Put("aa", userRow("k", "w", i)); err != nil {
					return err
				}
				return tx.Put("bb", userRow("k", "w", i))
			}); err != nil {
				writerErr = err
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		var a, b int64
		err := db.View(func(tx *Tx) error {
			for _, p := range []struct {
				tbl string
				out *int64
			}{{"aa", &a}, {"bb", &b}} {
				switch row, err := tx.Get(p.tbl, "k"); {
				case err == nil:
					*p.out = row["age"].(int64)
				case errors.Is(err, ErrNotFound):
				default:
					return err
				}
				// Offer the writer the gap between the two reads: a View
				// that let a commit in here would tear on most rounds.
				runtime.Gosched()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("torn view: aa at %d, bb at %d", a, b)
		}
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
}

// TestScanCallbackMayReadOtherTable: a scan callback is ordinary
// transaction code — it may read the scanned table or any other, in a
// View and in an Update alike.
func TestScanCallbackMayReadOtherTable(t *testing.T) {
	db := twoTables(t)
	if err := db.Update(func(tx *Tx) error {
		if err := tx.Put("aa", userRow("u1", "x", 1)); err != nil {
			return err
		}
		return tx.Put("bb", userRow("u1", "y", 2))
	}); err != nil {
		t.Fatal(err)
	}
	scan := func(tx *Tx) error {
		var inner error
		emitted := 0
		serr := tx.SelectFunc("aa", nil, func(Row) bool {
			emitted++
			for _, tbl := range []string{"aa", "bb"} {
				if _, err := tx.Get(tbl, "u1"); err != nil {
					inner = fmt.Errorf("get %s inside a scan of aa: %w", tbl, err)
					return false
				}
			}
			return true
		})
		if serr == nil && inner == nil && emitted != 1 {
			inner = fmt.Errorf("scan emitted %d rows, want 1", emitted)
		}
		return errors.Join(serr, inner)
	}
	if err := db.View(scan); err != nil {
		t.Fatalf("view: %v", err)
	}
	if err := db.Update(scan); err != nil {
		t.Fatalf("update: %v", err)
	}
}

// TestStatsDoesNotWaitForWriter: Stats and RowCount read store-level
// mirrors and take no store lock, so they answer while an Update callback
// is parked with the store locked exclusively — and report the committed
// state, not the parked transaction's buffered writes.
func TestStatsDoesNotWaitForWriter(t *testing.T) {
	db := twoTables(t)
	if err := db.Update(func(tx *Tx) error { return tx.Put("aa", userRow("u1", "x", 1)) }); err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- db.Update(func(tx *Tx) error {
			if err := tx.Put("bb", userRow("u2", "y", 2)); err != nil {
				return err
			}
			close(parked)
			<-release
			return nil
		})
	}()
	<-parked
	type reading struct {
		st   Stats
		rows int64
	}
	got := make(chan reading, 1)
	go func() { got <- reading{db.Stats(), db.RowCount()} }()
	select {
	case r := <-got:
		if r.st.Tables != 2 || r.st.Rows != 1 || r.rows != 1 {
			t.Errorf("while a writer is parked: %d tables, %d rows, RowCount %d; want 2, 1, 1", r.st.Tables, r.st.Rows, r.rows)
		}
	case <-time.After(10 * time.Second):
		t.Error("Stats/RowCount queued behind a parked Update callback")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Rows != 2 || db.RowCount() != 2 {
		t.Fatalf("after the commit: %d rows, RowCount %d; want 2", st.Rows, db.RowCount())
	}
}

// syncGate is a fileHook whose files, once armed, park inside Sync until
// released: a commit's fsync held open at will.
type syncGate struct {
	armed   atomic.Bool
	entered chan struct{} // one send per held Sync
	release chan struct{}
}

type syncGateFile struct {
	walFile
	g *syncGate
}

func (f syncGateFile) Sync() error {
	if f.g.armed.Load() {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.walFile.Sync()
}

// TestViewCompletesDuringCommitSync: Update releases the store lock
// before it waits for group commit, so while one commit's fsync is held
// open a View completes (and already observes that commit, the
// group-commit contract) and a second Update's callback runs.
func TestViewCompletesDuringCommitSync(t *testing.T) {
	gate := &syncGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	db, err := Open(t.TempDir(), &Options{
		CompactEvery: -1,
		fileHook:     func(f walFile) walFile { return syncGateFile{f, gate} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	first := make(chan error, 1)
	go func() {
		first <- db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u1", "x", 1)) })
	}()
	<-gate.entered // the first commit is inside its fsync

	viewed := make(chan error, 1)
	go func() {
		viewed <- db.View(func(tx *Tx) error {
			_, err := tx.Get("users", "u1")
			return err
		})
	}()
	secondRan := make(chan struct{})
	second := make(chan error, 1)
	go func() {
		second <- db.Update(func(tx *Tx) error {
			close(secondRan)
			return tx.Put("users", userRow("u2", "y", 2))
		})
	}()
	select {
	case err := <-viewed:
		if err != nil {
			t.Errorf("view during the fsync: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a View queued behind a commit's fsync: the store lock is held across IO")
	}
	select {
	case <-secondRan:
	case <-time.After(10 * time.Second):
		t.Error("a second Update's callback queued behind a commit's fsync")
	}
	gate.armed.Store(false)
	close(gate.release)
	for _, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentCreateTable: racing creations of the same table must
// settle on exactly one registration (the loser observing an equal
// schema no-ops), and disjoint creations must both land.
func TestConcurrentCreateTable(t *testing.T) {
	db := OpenMemory()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := usersSchema()
			s.Name = "shared"
			if err := db.CreateTable(s); err != nil {
				errs <- err
			}
			s2 := usersSchema()
			s2.Name = fmt.Sprintf("own%d", i)
			if err := db.CreateTable(s2); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(db.Tables()); got != 9 {
		t.Fatalf("have %d tables, want 9 (%v)", got, db.Tables())
	}
}

// TestUpdateSerialisesReadModifyWrite: the classic lost-update check on
// one table — N goroutines increment the same row; Update callbacks run
// one at a time, so every increment must survive.
func TestUpdateSerialisesReadModifyWrite(t *testing.T) {
	db := twoTables(t)
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := db.Update(func(tx *Tx) error {
					var n int64
					if row, err := tx.Get("aa", "ctr"); err == nil {
						n = row["age"].(int64)
					} else if err != ErrNotFound {
						return err
					}
					return tx.Put("aa", userRow("ctr", "c", n+1))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	db.View(func(tx *Tx) error {
		row, err := tx.Get("aa", "ctr")
		if err != nil {
			t.Fatal(err)
		}
		if got := row["age"].(int64); got != workers*rounds {
			t.Fatalf("counter %d, want %d: increments were lost", got, workers*rounds)
		}
		return nil
	})
}

// TestNoDeadlockLookupCreateCompact pins a three-way interleaving: a
// transaction parked mid-callback with one table written and another
// still to read, a compaction whose state clone waits on it, and a
// CreateTable queued behind both. Go's RWMutex parks new readers behind
// a pending writer, so a parked transaction that had to take any further
// lock could close a cycle here; under the one store lock it already
// holds everything it needs.
func TestNoDeadlockLookupCreateCompact(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, name := range []string{"aa", "bb"} {
		s := usersSchema()
		s.Name = name
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Update(func(tx *Tx) error { return tx.Put("aa", userRow("r", "x", 1)) }); err != nil {
		t.Fatal(err)
	}

	holdingA := make(chan struct{})
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	finished := make(chan struct{})
	go func() { // A: writes "aa", parks, then reads "bb"
		defer wg.Done()
		err := db.Update(func(tx *Tx) error {
			if err := tx.Put("aa", userRow("r", "x", 2)); err != nil {
				return err
			}
			close(holdingA)
			<-proceed
			_, err := tx.Get("bb", "nope")
			if err != ErrNotFound {
				return err
			}
			return nil
		})
		if err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-holdingA
	go func() { // C: compaction clone blocks on A
		defer wg.Done()
		if err := db.Compact(); err != nil {
			t.Errorf("compact: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the clone queue for the store lock
	go func() {                       // B: pending exclusive claim
		defer wg.Done()
		s := usersSchema()
		s.Name = "cc"
		if err := db.CreateTable(s); err != nil {
			t.Errorf("create: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the create queue its writer claim
	close(proceed)
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(15 * time.Second):
		t.Fatal("deadlock: lookup/create/compact never finished")
	}
}

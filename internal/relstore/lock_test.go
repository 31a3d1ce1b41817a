package relstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
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

// openGated opens a durable store whose segment files park in Sync while
// gate is armed, with the users table created before it is. It returns
// the store and a release that disarms the gate and frees every parked
// Sync, safe to call more than once; the cleanup calls it before Close.
func openGated(t *testing.T, gate *syncGate) (*DB, func()) {
	t.Helper()
	db, err := Open(t.TempDir(), &Options{
		CompactEvery: -1,
		fileHook:     func(f walFile) walFile { return syncGateFile{f, gate} },
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			gate.armed.Store(false)
			close(gate.release)
		})
	}
	t.Cleanup(func() {
		release()
		db.Close()
	})
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	return db, release
}

// awaitFsync waits until a commit has entered the gate's Sync.
func awaitFsync(t *testing.T, gate *syncGate, what string) {
	t.Helper()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached its fsync", what)
	}
}

// TestCommitReturnsAfterItsOwnFsync: a commit waits for its own batch's
// fsync only. The first commit is parked inside its fsync and a second
// one enqueued behind it; releasing the first fsync alone must let the
// first Update return while the second commit sits in its own fsync. A
// leader that went on to write every batch queued behind its own would
// hold the first Update until the second fsync ends.
func TestCommitReturnsAfterItsOwnFsync(t *testing.T) {
	gate := &syncGate{entered: make(chan struct{}, 2), release: make(chan struct{})}
	db, release := openGated(t, gate)
	gate.armed.Store(true)
	first := make(chan error, 1)
	go func() {
		first <- db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u1", "x", 1)) })
	}()
	awaitFsync(t, gate, "the first commit")

	second := make(chan error, 1)
	go func() {
		second <- db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u2", "y", 2)) })
	}()
	// The first batch left the group when its write began, so the second
	// record accumulates in a batch of its own.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		db.group.mu.Lock()
		queued := db.group.cur != nil
		db.group.mu.Unlock()
		if queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second commit was never enqueued")
		}
	}

	gate.release <- struct{}{} // the first fsync only: the gate stays armed
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first Update waited for the batch queued behind its own")
	}
	awaitFsync(t, gate, "the second commit")
	select {
	case err := <-second:
		t.Fatalf("the second Update returned (%v) while its fsync is parked", err)
	default:
	}
	release()
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}

// TestWALReadersAnswerDuringFsync: ReadPosition, ShipPosition, Stats and
// WaitFollowerApplied read the published WAL state and take no lock, so
// they answer while a commit is parked inside its fsync, and report the
// last durable position: not the parked commit's until its fsync ends.
func TestWALReadersAnswerDuringFsync(t *testing.T) {
	gate := &syncGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	db, release := openGated(t, gate)
	if err := db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u1", "x", 1)) }); err != nil {
		t.Fatal(err)
	}
	_, before, ok := db.ReadPosition()
	if !ok {
		t.Fatal("no position after a durable commit")
	}
	gate.armed.Store(true)
	parked := make(chan error, 1)
	go func() {
		parked <- db.Update(func(tx *Tx) error { return tx.Put("users", userRow("u2", "y", 2)) })
	}()
	awaitFsync(t, gate, "the commit")

	type readings struct {
		pos     Position
		ok      bool
		ship    ShipPosition
		shipErr error
		st      Stats
		waitErr error
	}
	got := make(chan readings, 1)
	go func() {
		var r readings
		_, r.pos, r.ok = db.ReadPosition()
		r.ship, _, r.shipErr = db.ShipPosition()
		r.st = db.Stats()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.waitErr = db.WaitFollowerApplied(ctx, Position{})
		got <- r
	}()
	select {
	case r := <-got:
		if !r.ok || r.pos != before {
			t.Errorf("ReadPosition during the fsync = %v (ok %v), want the last durable position %v", r.pos, r.ok, before)
		}
		if r.shipErr != nil || r.ship.WALSeq != before.Seq || r.ship.Durable != before.Off {
			t.Errorf("ShipPosition during the fsync = %+v, %v; want (%d, %d)", r.ship, r.shipErr, before.Seq, before.Off)
		}
		if r.st.WALSeq != before.Seq || r.st.WALError != "" {
			t.Errorf("Stats during the fsync: walSeq %d, walError %q; want %d, none", r.st.WALSeq, r.st.WALError, before.Seq)
		}
		if r.waitErr != nil {
			t.Errorf("WaitFollowerApplied for a covered position: %v", r.waitErr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a WAL reader queued behind a commit's fsync")
	}
	release()
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if _, after, ok := db.ReadPosition(); !ok || after == before || !after.Covers(before) {
		t.Fatalf("after the fsync ReadPosition = %v (ok %v), want past %v", after, ok, before)
	}
}

// lockedFollowerReads answers ReadPosition and FollowerPosition for a
// follower from the fields walMu guards, read under walMu: what the two
// reads answered while they took the lock.
func lockedFollowerReads(db *DB) (gen Generation, pos Position, ok bool, seq, off int64) {
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.wal != nil {
		off = db.wal.size
	}
	return db.gen, db.applied, db.gen.StoreID != "", db.walSeq, off
}

// TestFollowerReadsMatchLockedReads drives a follower through every step
// that changes its WAL state and checks, after each, that the lock-free
// ReadPosition and FollowerPosition answer what the same reads answer
// under walMu. A published state that lagged one of these steps would
// report "no token" or "not caught up" where the store has caught up,
// and a follower read would answer 412 or 503 for it.
func TestFollowerReadsMatchLockedReads(t *testing.T) {
	leader := openLeader(t, t.TempDir())
	if err := leader.CreateTable(replTestSchema()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 12; i++ {
		putKV(t, leader, fmt.Sprintf("k%02d", i), i)
	}
	lgen, _, _ := leader.ReadPosition()
	f := openFollower(t, t.TempDir())
	check := func(step string) {
		t.Helper()
		wgen, wpos, wok, wseq, woff := lockedFollowerReads(f)
		gen, pos, ok := f.ReadPosition()
		seq, off := f.FollowerPosition()
		if gen != wgen || pos != wpos || ok != wok || seq != wseq || off != woff {
			t.Errorf("after %s: ReadPosition %v %v %v, FollowerPosition (%d, %d); under walMu %v %v %v, (%d, %d)",
				step, gen, pos, ok, seq, off, wgen, wpos, wok, wseq, woff)
		}
	}
	check("open")
	if err := f.SetFollowerGeneration(lgen); err != nil {
		t.Fatal(err)
	}
	check("SetFollowerGeneration")

	// Ship the leader's history a frame-sized chunk at a time.
	ship, _, err := leader.ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	for advanced := 0; ; {
		seq, off := f.FollowerPosition()
		if seq == ship.WALSeq && off >= ship.Durable {
			if advanced == 0 {
				t.Fatal("the leader's history fits one segment: no FollowerAdvanceSegment was checked")
			}
			break
		}
		data, err := os.ReadFile(leader.SegmentPath(seq))
		if err != nil {
			t.Fatal(err)
		}
		if seq == ship.WALSeq {
			data = data[:ship.Durable]
		}
		if off < int64(len(data)) {
			end := min(off+FrameSize(data[off:off+FrameHeaderSize]), int64(len(data)))
			if _, err := f.FollowerApply(data[off:end]); err != nil {
				t.Fatal(err)
			}
			check("FollowerApply")
			continue
		}
		if err := f.FollowerAdvanceSegment(); err != nil {
			t.Fatal(err)
		}
		advanced++
		check("FollowerAdvanceSegment")
	}

	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(leader.SnapshotFilePath())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FollowerReinit(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	check("FollowerReinit")
	if err := f.SetFollowerGeneration(lgen); err != nil {
		t.Fatal(err)
	}
	check("SetFollowerGeneration after FollowerReinit")
	if err := f.clearGeneration(); err != nil {
		t.Fatal(err)
	}
	check("clearGeneration")
	if err := f.SetFollowerGeneration(lgen); err != nil {
		t.Fatal(err)
	}

	bad := opsFrame(t, walOp{Op: opPut, Table: "ghost", ID: "x", rowBin: fuzzRow(t, 1)})
	if _, err := f.FollowerApply(bad); err == nil {
		t.Fatal("an unappliable frame applied")
	}
	check("a poisoning FollowerApply")
	if err := f.FollowerReinit(bytes.NewReader(snap[:len(snap)-3])); err == nil {
		t.Fatal("a truncated snapshot was accepted")
	}
	check("a refused FollowerReinit")
	if err := f.FollowerReinit(nil); err != nil {
		t.Fatal(err)
	}
	check("FollowerReinit(nil)")
	if err := f.SetFollowerGeneration(lgen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	check("Close")
	if _, _, ok := f.ReadPosition(); !ok {
		t.Error("a closed follower with a verified generation reports no token")
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

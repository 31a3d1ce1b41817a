package relstore

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"
)

// TestGenerationMintedAndEpochBumps pins the leader-side generation
// lifecycle: the first open mints a store id at epoch 1, every reopen
// keeps the id and bumps the epoch — the signal followers use to notice
// "the leader restarted since I verified".
func TestGenerationMintedAndEpochBumps(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen1, _, ok := db.ReadPosition()
	id1, epoch1 := gen1.StoreID, gen1.Epoch
	if !ok || id1 == "" || epoch1 != 1 {
		t.Fatalf("first open generation = (%q, %d, %v), want fresh id at epoch 1", id1, epoch1, ok)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	gen2, _, ok := db2.ReadPosition()
	id2, epoch2 := gen2.StoreID, gen2.Epoch
	if !ok || id2 != id1 {
		t.Fatalf("reopen changed the store id: %q -> %q", id1, id2)
	}
	if epoch2 != 2 {
		t.Fatalf("reopen epoch = %d, want 2", epoch2)
	}
}

// TestFollowerGenerationIsAssignedNotMinted pins the follower side: a
// replica never invents a generation (its history belongs to a leader),
// it records one only when verification assigns it — and the assignment
// persists across reopens.
func TestFollowerGenerationIsAssignedNotMinted(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	if gen, _, ok := db.ReadPosition(); ok {
		t.Fatalf("fresh follower minted a generation (%q, %d)", gen.StoreID, gen.Epoch)
	}
	if err := db.SetFollowerGeneration(Generation{StoreID: "cafe00112233", Epoch: 7}); err != nil {
		t.Fatal(err)
	}
	if gen, _, ok := db.ReadPosition(); !ok || gen.StoreID != "cafe00112233" || gen.Epoch != 7 {
		t.Fatalf("after assignment: (%q, %d, %v)", gen.StoreID, gen.Epoch, ok)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, &Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if gen, _, ok := db2.ReadPosition(); !ok || gen.StoreID != "cafe00112233" || gen.Epoch != 7 {
		t.Fatalf("assigned generation did not survive reopen: (%q, %d, %v)", gen.StoreID, gen.Epoch, ok)
	}
	// A leader must never accept the follower-assignment path.
	leaderDir := t.TempDir()
	ldb, err := Open(leaderDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	if err := ldb.SetFollowerGeneration(Generation{StoreID: "cafe00112233", Epoch: 9}); err == nil {
		t.Fatal("SetFollowerGeneration on a leader succeeded")
	}
}

// TestCommitPositionTracksCommits pins that the commit position a
// session token is built from moves with every durable commit and is
// refused on stores that cannot honour it (memory stores have no WAL).
func TestCommitPositionTracksCommits(t *testing.T) {
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(Schema{Name: "kv", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
	_, pos0, ok := db.ReadPosition()
	seq0, off0 := pos0.Seq, pos0.Off
	if !ok {
		t.Fatal("durable store refused a commit position")
	}
	if err := db.Update(func(tx *Tx) error { return tx.Put("kv", Row{"id": "a"}) }); err != nil {
		t.Fatal(err)
	}
	_, pos1, ok := db.ReadPosition()
	seq1, off1 := pos1.Seq, pos1.Off
	if !ok {
		t.Fatal("commit position unavailable after a commit")
	}
	if seq1 < seq0 || (seq1 == seq0 && off1 <= off0) {
		t.Fatalf("commit position did not advance: (%d,%d) -> (%d,%d)", seq0, off0, seq1, off1)
	}

	mem := OpenMemory()
	defer mem.Close()
	if _, _, ok := mem.ReadPosition(); ok {
		t.Fatal("memory store handed out a commit position it cannot honour")
	}
}

// TestWaitFollowerApplied exercises the wait primitive the follower
// read gate is built on: immediate satisfaction, wake-up on apply,
// deadline expiry, and failure on close.
func TestWaitFollowerApplied(t *testing.T) {
	leaderDir := t.TempDir()
	ldb, err := Open(leaderDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	if err := ldb.CreateTable(Schema{Name: "kv", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
	frames := captureWAL(t, ldb) // everything committed so far

	fdb, err := Open(t.TempDir(), &Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	if _, err := fdb.FollowerApply(frames); err != nil {
		t.Fatal(err)
	}
	_, applied, _ := fdb.ReadPosition()
	aseq, aoff := applied.Seq, applied.Off

	// Already satisfied: returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := fdb.WaitFollowerApplied(ctx, Position{Seq: aseq, Off: aoff}); err != nil {
		t.Fatalf("wait for an already-applied position: %v", err)
	}

	// Not yet satisfied: a short deadline expires...
	short, scancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer scancel()
	if err := fdb.WaitFollowerApplied(short, Position{Seq: aseq, Off: aoff + 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait past the tip = %v, want deadline exceeded", err)
	}

	// ...but applying more WAL wakes a pending waiter.
	if err := ldb.Update(func(tx *Tx) error { return tx.Put("kv", Row{"id": "x"}) }); err != nil {
		t.Fatal(err)
	}
	more := captureWAL(t, ldb)[len(frames):]
	done := make(chan error, 1)
	go func() {
		wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer wcancel()
		done <- fdb.WaitFollowerApplied(wctx, Position{Seq: aseq, Off: aoff + 1})
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	if _, err := fdb.FollowerApply(more); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter not woken by apply: %v", err)
	}

	// A waiter pending at close errors out instead of hanging.
	done2 := make(chan error, 1)
	go func() {
		wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer wcancel()
		done2 <- fdb.WaitFollowerApplied(wctx, Position{Seq: aseq + 100})
	}()
	time.Sleep(20 * time.Millisecond)
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err == nil {
		t.Fatal("waiter survived store close without error")
	}
}

// captureWAL reads the leader's durable current-segment bytes straight
// from the segment file, giving raw frames a follower can apply.
func captureWAL(t *testing.T, db *DB) []byte {
	t.Helper()
	pos, _, err := db.ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(db.SegmentPath(pos.WALSeq))
	if err != nil {
		t.Fatal(err)
	}
	return data[:pos.Durable]
}

// TestPositionCovers pins the one rule positions are compared by: a
// position covers itself, a later offset in its segment and any offset
// of an earlier segment — never the other way round.
func TestPositionCovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		p, o Position
		want bool
	}{
		{"equal", Position{Seq: 3, Off: 100}, Position{Seq: 3, Off: 100}, true},
		{"same segment, further", Position{Seq: 3, Off: 101}, Position{Seq: 3, Off: 100}, true},
		{"same segment, behind", Position{Seq: 3, Off: 99}, Position{Seq: 3, Off: 100}, false},
		{"later segment, lower offset", Position{Seq: 4, Off: 0}, Position{Seq: 3, Off: 100}, true},
		{"earlier segment, higher offset", Position{Seq: 2, Off: 500}, Position{Seq: 3, Off: 100}, false},
	} {
		if got := tc.p.Covers(tc.o); got != tc.want {
			t.Errorf("%s: %+v.Covers(%+v) = %v, want %v", tc.name, tc.p, tc.o, got, tc.want)
		}
	}
}

// TestGenerationHeaderRoundTrip pins the "id:epoch" header form: what
// String prints parses back equal, and anything that is not a store id
// and an epoch of at least 1 is refused rather than read as unknown.
func TestGenerationHeaderRoundTrip(t *testing.T) {
	for _, g := range []Generation{{StoreID: "cafe00112233", Epoch: 1}, {StoreID: "s", Epoch: 1<<63 - 1}} {
		back, err := ParseGeneration(g.String())
		if err != nil || back != g {
			t.Errorf("%+v printed %q and parsed back to %+v (%v)", g, g.String(), back, err)
		}
	}
	if got := (Generation{StoreID: "cafe00112233", Epoch: 7}).String(); got != "cafe00112233:7" {
		t.Errorf("String = %q, want cafe00112233:7", got)
	}
	for _, bad := range []string{"", "cafe", "cafe:", ":7", "cafe:0", "cafe:-1", "cafe:x", "cafe:7:1"} {
		if g, err := ParseGeneration(bad); err == nil {
			t.Errorf("ParseGeneration(%q) = %+v, want an error", bad, g)
		}
	}
}

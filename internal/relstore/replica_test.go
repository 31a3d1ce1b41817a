package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// replTestSchema is the table the replication unit tests write.
func replTestSchema() Schema {
	return Schema{Name: "kv", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "v", Type: TInt},
	}}
}

// openLeader creates a writable store with small segments so tests
// cross segment boundaries quickly.
func openLeader(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir, &Options{SegmentBytes: 256, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func openFollower(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir, &Options{Follower: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func putKV(t *testing.T, db *DB, id string, v int64) {
	t.Helper()
	if err := db.Update(func(tx *Tx) error {
		return tx.Put("kv", Row{"id": id, "v": v})
	}); err != nil {
		t.Fatal(err)
	}
}

// shipAll copies every durable byte the leader has (sealed segments in
// full, the active segment to its durable boundary) into the follower,
// advancing segments the way the ship protocol would.
func shipAll(t *testing.T, leader, follower *DB) {
	t.Helper()
	pos, _, err := leader.ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	for {
		seq, off := follower.FollowerPosition()
		if seq > pos.WALSeq || (seq == pos.WALSeq && off >= pos.Durable) {
			return
		}
		sealed := seq < pos.WALSeq
		data, err := os.ReadFile(leader.SegmentPath(seq))
		if err != nil {
			t.Fatal(err)
		}
		end := int64(len(data))
		if !sealed {
			end = pos.Durable
		}
		if off < end {
			if n, err := follower.FollowerApply(data[off:end]); err != nil || n != end-off {
				t.Fatalf("FollowerApply(seg %d [%d:%d]) = %d, %v", seq, off, end, n, err)
			}
		}
		if sealed {
			if err := follower.FollowerAdvanceSegment(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFollowerRejectsLocalWrites(t *testing.T) {
	f := openFollower(t, t.TempDir())
	if err := f.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Update on follower: %v, want ErrReadOnly", err)
	}
	if err := f.CreateTable(replTestSchema()); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("CreateTable on follower: %v, want ErrReadOnly", err)
	}
	// Reads still work (empty store, no tables yet).
	if err := f.View(func(tx *Tx) error { return nil }); err != nil {
		t.Fatalf("View on follower: %v", err)
	}
}

func TestFollowerApplyPartialChunkIsTorn(t *testing.T) {
	// Default segment size: everything stays in segment 1, so the whole
	// shipped history is one chunk this test can cut mid-frame.
	leader, err := Open(t.TempDir(), &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	if err := leader.CreateTable(replTestSchema()); err != nil {
		t.Fatal(err)
	}
	putKV(t, leader, "a", 1)
	putKV(t, leader, "b", 2)
	pos, _, err := leader.ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(leader.SegmentPath(pos.WALSeq))
	if err != nil {
		t.Fatal(err)
	}
	data = data[:pos.Durable]

	follower := openFollower(t, t.TempDir())
	// Cut the chunk mid-frame: everything before the cut that forms
	// whole frames applies; the torn tail must be reported, not applied.
	cut := len(data) - 3
	n, aerr := follower.FollowerApply(data[:cut])
	if !IsTornFrame(aerr) {
		t.Fatalf("partial chunk: err %v, want torn frame", aerr)
	}
	if n <= 0 || n >= int64(cut) {
		t.Fatalf("partial chunk consumed %d of %d", n, cut)
	}
	if _, off := follower.FollowerPosition(); off != n {
		t.Fatalf("position %d after consuming %d", off, n)
	}
	// Re-request from the durable position, as the protocol would.
	if m, err := follower.FollowerApply(data[n:]); err != nil || n+m != int64(len(data)) {
		t.Fatalf("resumed apply = %d, %v", m, err)
	}
	checkState(t, "state diverged after torn retry", stateOf(leader), stateOf(follower))
}

func TestFollowerApplyUndecodableFramePoisons(t *testing.T) {
	follower := openFollower(t, t.TempDir())
	evil := frame([]byte("not json"))
	n, err := follower.FollowerApply(evil)
	if err == nil || IsTornFrame(err) {
		t.Fatalf("undecodable frame: %v", err)
	}
	if n != 0 {
		t.Fatalf("undecodable frame consumed %d bytes", n)
	}
	if len(stateOf(follower)) != 0 {
		t.Fatal("undecodable frame applied state")
	}
	// FollowerReinit (the bootstrap path) clears the failure and leaves
	// a working empty replica.
	if err := follower.FollowerReinit(nil); err != nil {
		t.Fatal(err)
	}
	if seq, off := follower.FollowerPosition(); seq != 1 || off != 0 {
		t.Fatalf("after reinit at (%d,%d), want (1,0)", seq, off)
	}
	leader := openLeader(t, t.TempDir())
	if err := leader.CreateTable(replTestSchema()); err != nil {
		t.Fatal(err)
	}
	putKV(t, leader, "x", 7)
	shipAll(t, leader, follower)
	checkState(t, "replica did not recover after reinit", stateOf(leader), stateOf(follower))
}

// TestFollowerUnappliableHistoryResetsOnReopen pins the crash-in-the-
// poison-window recovery: a CRC-valid, decodable frame the replica
// cannot apply (divergent leader history) is durably mirrored before
// the apply fails. If the process dies before the orchestrator's
// re-bootstrap, reopening the directory must self-heal by resetting to
// empty — never refuse to open, which would brick the follower.
func TestFollowerUnappliableHistoryResetsOnReopen(t *testing.T) {
	dir := t.TempDir()
	follower := openFollower(t, dir)
	bad := opsFrame(t, walOp{Op: opPut, Table: "ghost", ID: "x", rowBin: fuzzRow(t, 1)})
	n, aerr := follower.FollowerApply(bad)
	if aerr == nil || IsTornFrame(aerr) {
		t.Fatalf("unappliable frame: %v", aerr)
	}
	if n != int64(len(bad)) {
		t.Fatalf("unappliable frame consumed %d of %d (must be durable before apply)", n, len(bad))
	}
	// The store is poisoned: further applies are refused.
	if _, err := follower.FollowerApply(bad); err == nil {
		t.Fatal("poisoned store accepted another apply")
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	re := openFollower(t, dir)
	if re.OpenReset() == nil {
		t.Fatal("unrecoverable replica reopened without a reset")
	}
	if seq, off := re.FollowerPosition(); seq != 1 || off != 0 {
		t.Fatalf("reset replica at (%d,%d), want (1,0)", seq, off)
	}
	if got := stateOf(re); len(got) != 0 {
		t.Fatalf("reset replica kept state: %v", got)
	}
	// And it replicates again from scratch.
	leader := openLeader(t, t.TempDir())
	if err := leader.CreateTable(replTestSchema()); err != nil {
		t.Fatal(err)
	}
	putKV(t, leader, "alive", 1)
	shipAll(t, leader, re)
	checkState(t, "reset replica did not reconverge", stateOf(leader), stateOf(re))
}

// TestRefusedSnapshotIsNeverInstalled: FollowerReinit parses the shipped
// stream as it lands and renames it into place only once it parsed. A
// stream cut short is refused: the follower's snapshot file stays the
// one it had, no temp file is left, the tables it serves stay, and the
// store is poisoned until a Reinit from a sound snapshot clears it.
func TestRefusedSnapshotIsNeverInstalled(t *testing.T) {
	leader := openLeader(t, t.TempDir())
	if err := leader.CreateTable(replTestSchema()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		putKV(t, leader, fmt.Sprintf("k%02d", i), i)
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(leader.SnapshotFilePath())
	if err != nil {
		t.Fatal(err)
	}
	follower := openFollower(t, t.TempDir())
	if err := follower.FollowerReinit(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	state := stateOf(follower)

	if err := follower.FollowerReinit(bytes.NewReader(snap[:len(snap)-3])); err == nil {
		t.Fatal("a truncated snapshot was accepted")
	}
	if got, err := os.ReadFile(follower.SnapshotFilePath()); err != nil || !bytes.Equal(got, snap) {
		t.Fatalf("the refused snapshot replaced the installed one (err %v)", err)
	}
	if _, err := os.Stat(follower.SnapshotFilePath() + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	checkState(t, "the refused snapshot changed the tables the follower serves", state, stateOf(follower))
	if _, err := follower.FollowerApply(frameCreate(t, fuzzSchema)); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("FollowerApply after a refused snapshot: %v, want ErrWALFailed", err)
	}
	if err := follower.FollowerReinit(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	checkState(t, "re-bootstrap after a refused snapshot diverged", state, stateOf(follower))
}

// TestFollowerApplyRecordIsAllOrNothing: a shipped record that cannot
// apply installs none of its ops. The frame holds two puts; the second
// row carries its table's schema hash but names an undeclared column.
// A reader polling while the frame applies never sees the first row, and
// neither does one after the replica is poisoned — a poisoned store
// still serves reads.
func TestFollowerApplyRecordIsAllOrNothing(t *testing.T) {
	follower := openFollower(t, t.TempDir())
	if _, err := follower.FollowerApply(frameCreate(t, fuzzSchema)); err != nil {
		t.Fatal(err)
	}
	wider := fuzzSchema
	wider.Columns = append(slices.Clone(fuzzSchema.Columns), Column{Name: "w", Type: TInt, Nullable: true})
	codec := newRowCodec(wider)
	undeclared, err := codec.appendRow(nil, Row{"r": "b", "w": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(undeclared, schemaHash(fuzzSchema))
	bad := opsFrame(t,
		walOp{Op: opPut, Table: "t", ID: "a", rowBin: fuzzRow(t, 1)},
		walOp{Op: opPut, Table: "t", ID: "b", rowBin: undeclared})

	visible := func() bool {
		var n int
		follower.View(func(tx *Tx) error {
			n, _ = tx.Count("t", nil)
			return nil
		})
		return n != 0
	}
	stop := make(chan struct{})
	seen := make(chan bool)
	go func() {
		saw := false
		for {
			select {
			case <-stop:
				seen <- saw
				return
			default:
				saw = saw || visible()
			}
		}
	}()
	n, err := follower.FollowerApply(bad)
	close(stop)
	if err == nil || n != int64(len(bad)) {
		t.Fatalf("FollowerApply: consumed %d, %v; want the frame and an apply error", n, err)
	}
	if <-seen {
		t.Error("a reader saw a put of the refused record while it applied")
	}
	if visible() {
		t.Error("a put of the refused record is visible after the poison")
	}
}

// FuzzFollowerApply drives the ship-protocol reader with arbitrary
// chunk bytes — seeded from the same corpus shapes as FuzzReadWAL — and
// pins the follower's safety contract:
//
//   - no panic, whatever the bytes;
//   - exactly the valid frame prefix is consumed; no byte of a damaged
//     frame is applied or written;
//   - damage is always surfaced as an error, never silently dropped;
//   - the applied state is durable: reopening the replica directory
//     recovers byte-identical tables and resumes at the same position
//     (the "always re-requests from its last durable LSN" guarantee).
func FuzzFollowerApply(f *testing.F) {
	valid := fuzzSegment(f, 3)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:5])
	flip := append([]byte{}, valid...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	f.Add(append(append([]byte{}, valid...), frame([]byte("not json"))...))
	f.Add(frame([]byte{}))
	// Refused although the checksum holds: JSON rows, alone and after
	// frames that must still apply. Unappliable: a put into a table the
	// replica has never seen.
	f.Add(jsonOpsFrame)
	f.Add(append(append([]byte{}, valid...), jsonOpsFrame...))
	f.Add(opsFrame(f, walOp{Op: opPut, Table: "ghost", ID: "x", rowBin: fuzzRow(f, 1)}))
	f.Add(append(frameCreate(f, replTestSchema()), valid...))
	f.Add(frame([]byte{binRecordTag, 0x01}))
	f.Add(lyingLengthFrame)
	for _, rf := range retiredForms(f) {
		f.Add(append(append([]byte{}, valid...), rf.frame...))
	}

	// The fuzz corpus references table "t"; ship its creation as the
	// first frame so valid puts apply.
	createPayload := frameCreate(f, fuzzSchema)

	// probe is a harmless frame used to detect poisoning observationally:
	// it applies cleanly on a healthy replica and is refused on one that
	// durably mirrored an unappliable frame.
	probe := opsFrame(f, walOp{Op: opSeq, Table: "t", Seq: 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		db, err := Open(dir, &Options{Follower: true, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := db.FollowerApply(createPayload); err != nil || n != int64(len(createPayload)) {
			t.Fatalf("create frame: %d, %v", n, err)
		}
		base := int64(len(createPayload))

		_, wantN, wantErr := readWAL(data)
		n, aerr := db.FollowerApply(data)
		// Frames that parse but cannot apply still count as consumed
		// (they are durable before apply); only framing damage bounds n.
		if n != wantN {
			t.Fatalf("consumed %d bytes, reader says valid prefix is %d", n, wantN)
		}
		if wantErr != nil && aerr == nil {
			t.Fatal("damaged input silently accepted")
		}
		if _, off := db.FollowerPosition(); off != base+n {
			t.Fatalf("position %d, want %d", off, base+n)
		}
		pn, perr := db.FollowerApply(probe)
		poisoned := perr != nil
		want := stateOf(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := Open(dir, &Options{Follower: true, CompactEvery: -1})
		if err != nil {
			t.Fatalf("reopen after apply: %v", err)
		}
		defer re.Close()
		if poisoned {
			// The replica durably mirrored a frame it cannot apply (the
			// crash-before-re-bootstrap state): reopen must self-heal by
			// resetting to empty, never brick.
			if re.OpenReset() == nil {
				t.Fatal("poisoned replica reopened without a reset")
			}
			if seq, off := re.FollowerPosition(); seq != 1 || off != 0 {
				t.Fatalf("reset replica at (%d,%d), want (1,0)", seq, off)
			}
			if got := stateOf(re); len(got) != 0 {
				t.Fatalf("reset replica kept state: %v", got)
			}
			return
		}
		if re.OpenReset() != nil {
			t.Fatalf("healthy replica was reset on reopen: %v", re.OpenReset())
		}
		if _, off := re.FollowerPosition(); off != base+n+pn {
			t.Fatalf("recovered position %d, want %d", off, base+n+pn)
		}
		if got := stateOf(re); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered state diverged:\n got %v\nwant %v", got, want)
		}
	})
}

// frameCreate frames a CreateTable record the way the leader's WAL
// writer would.
func frameCreate(t testing.TB, s Schema) []byte {
	t.Helper()
	payload, err := json.Marshal(schemaRecord{CreateTable: &s})
	if err != nil {
		t.Fatal(err)
	}
	return frame(payload)
}

// TestFollowerApplyAllocatesLittle applies a chunk shaped like one job's
// two commits (about 1.7 KB of frames) over and over: parsing a shipped
// chunk walks the bytes the follower already holds, so an apply costs
// the records it installs, not a read buffer per chunk.
func TestFollowerApplyAllocatesLittle(t *testing.T) {
	leader, err := Open(t.TempDir(), &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	if err := leader.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	created, _, err := leader.ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []int{700, 800} {
		row := userRow(fmt.Sprintf("job-%d", i), "running", int64(i))
		row["avatar"] = bytes.Repeat([]byte{'x'}, size)
		if err := leader.Update(func(tx *Tx) error { return tx.Put("users", row) }); err != nil {
			t.Fatal(err)
		}
	}
	pos, _, err := leader.ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(leader.SegmentPath(pos.WALSeq))
	if err != nil {
		t.Fatal(err)
	}
	chunk := seg[created.Durable:pos.Durable]

	follower := openFollower(t, t.TempDir())
	if _, err := follower.FollowerApply(seg[:created.Durable]); err != nil {
		t.Fatal(err)
	}
	apply := func() {
		if n, err := follower.FollowerApply(chunk); err != nil || n != int64(len(chunk)) {
			t.Fatalf("FollowerApply = %d, %v; want %d, nil", n, err, len(chunk))
		}
	}
	apply() // the first apply builds the rows the later ones replace
	const applies = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < applies; i++ {
		apply()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / applies; per > 4<<10 {
		t.Fatalf("applying a %d-byte chunk allocated %d bytes per apply, want at most 4 KiB", len(chunk), per)
	}
}

// TestWALFrameLargerThanAnyBuffer commits one record of about 1.5 MB, the
// size of a 1,000-variant evaluation submit: it survives a close and
// reopen, applies on a follower whole, and a chunk cut inside it is torn
// at the frame's start, after which the rest applies.
func TestWALFrameLargerThanAnyBuffer(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(dir, &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	if err := leader.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	created, _, err := leader.ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	row := userRow("submit", "evaluation", 1000)
	row["avatar"] = bytes.Repeat([]byte("variant "), 1500_000/8)
	if err := leader.Update(func(tx *Tx) error { return tx.Put("users", row) }); err != nil {
		t.Fatal(err)
	}
	want := stateOf(leader)
	pos, _, err := leader.ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(leader.SegmentPath(pos.WALSeq))
	if err != nil {
		t.Fatal(err)
	}
	data = data[:pos.Durable]
	if big := len(data) - int(created.Durable); big < 1500_000 {
		t.Fatalf("the record's frame is %d bytes, want about 1.5 MB", big)
	}

	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, &Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	checkState(t, "the 1.5 MB record did not survive close and reopen", want, stateOf(reopened))

	whole := openFollower(t, t.TempDir())
	if n, err := whole.FollowerApply(data); err != nil || n != int64(len(data)) {
		t.Fatalf("FollowerApply(whole) = %d, %v; want %d, nil", n, err, len(data))
	}
	checkState(t, "the follower's state differs from the leader's", want, stateOf(whole))

	cut := openFollower(t, t.TempDir())
	mid := int(created.Durable) + (len(data)-int(created.Durable))/2
	n, err := cut.FollowerApply(data[:mid])
	if !IsTornFrame(err) || n != created.Durable {
		t.Fatalf("FollowerApply(cut mid-frame) = %d, %v; want %d and a torn frame", n, err, created.Durable)
	}
	if m, err := cut.FollowerApply(data[n:]); err != nil || n+m != int64(len(data)) {
		t.Fatalf("FollowerApply(rest) = %d, %v; want %d, nil", m, err, int64(len(data))-n)
	}
	checkState(t, "the follower's state after the cut differs from the leader's", want, stateOf(cut))
}

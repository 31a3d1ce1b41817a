package relstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

// replTestSchema is the table the replication unit tests write.
func replTestSchema() Schema {
	return Schema{Name: "kv", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "v", Type: TInt, Indexed: true},
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

// dumpState captures every table's rows (and sequence counter) for
// whole-store equality checks between replication peers.
func dumpState(db *DB) map[string]map[string]Row {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]map[string]Row, len(db.tables))
	for name, t := range db.tables {
		rows := make(map[string]Row, len(t.rows))
		for id, r := range t.rows {
			rows[id] = r
		}
		out[name] = rows
	}
	return out
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

func TestFollowerMirrorsLeaderAcrossSegments(t *testing.T) {
	leader := openLeader(t, t.TempDir())
	if err := leader.CreateTable(replTestSchema()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ { // small segments: this spans several
		putKV(t, leader, "k", i)
		putKV(t, leader, "k2", i*10)
	}
	pos, _, err := leader.ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	if pos.WALSeq < 2 {
		t.Fatalf("test needs multiple segments, leader only at %d", pos.WALSeq)
	}

	fdir := t.TempDir()
	follower := openFollower(t, fdir)
	shipAll(t, leader, follower)

	if got, want := dumpState(follower), dumpState(leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state diverged:\n got %v\nwant %v", got, want)
	}
	fseq, foff := follower.FollowerPosition()
	if fseq != pos.WALSeq || foff != pos.Durable {
		t.Fatalf("follower at (%d,%d), leader at (%d,%d)", fseq, foff, pos.WALSeq, pos.Durable)
	}

	// Restart the follower: the replica must recover everything it
	// applied and resume at exactly the same position.
	want := dumpState(follower)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openFollower(t, fdir)
	if got := dumpState(reopened); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted follower lost state:\n got %v\nwant %v", got, want)
	}
	if seq, off := reopened.FollowerPosition(); seq != fseq || off != foff {
		t.Fatalf("restarted follower at (%d,%d), want (%d,%d)", seq, off, fseq, foff)
	}

	// And it keeps applying: new leader commits ship into the reopened
	// replica.
	putKV(t, leader, "post-restart", 1)
	shipAll(t, leader, reopened)
	if got, want := dumpState(reopened), dumpState(leader); !reflect.DeepEqual(got, want) {
		t.Fatal("follower did not converge after restart")
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
	if got, want := dumpState(follower), dumpState(leader); !reflect.DeepEqual(got, want) {
		t.Fatal("state diverged after torn retry")
	}
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
	if len(dumpState(follower)) != 0 {
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
	if got, want := dumpState(follower), dumpState(leader); !reflect.DeepEqual(got, want) {
		t.Fatal("replica did not recover after reinit")
	}
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
	if got := dumpState(re); len(got) != 0 {
		t.Fatalf("reset replica kept state: %v", got)
	}
	// And it replicates again from scratch.
	leader := openLeader(t, t.TempDir())
	if err := leader.CreateTable(replTestSchema()); err != nil {
		t.Fatal(err)
	}
	putKV(t, leader, "alive", 1)
	shipAll(t, leader, re)
	if got, want := dumpState(re), dumpState(leader); !reflect.DeepEqual(got, want) {
		t.Fatal("reset replica did not reconverge")
	}
}

func TestFollowerReinitFromSnapshot(t *testing.T) {
	ldir := t.TempDir()
	leader := openLeader(t, ldir)
	if err := leader.CreateTable(replTestSchema()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		putKV(t, leader, "k", i)
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	snapBoundary := leader.snapSeq.Load()
	if snapBoundary < 1 {
		t.Fatal("compaction produced no snapshot")
	}

	// A follower that had some unrelated state re-bootstraps from the
	// leader's snapshot stream.
	follower := openFollower(t, t.TempDir())
	snap, err := os.Open(leader.SnapshotFilePath())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := follower.FollowerReinit(snap); err != nil {
		t.Fatal(err)
	}
	if seq, off := follower.FollowerPosition(); seq != snapBoundary+1 || off != 0 {
		t.Fatalf("after snapshot reinit at (%d,%d), want (%d,0)", seq, off, snapBoundary+1)
	}
	// Tail the rest and converge.
	putKV(t, leader, "tail", 99)
	shipAll(t, leader, follower)
	if got, want := dumpState(follower), dumpState(leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot bootstrap diverged:\n got %v\nwant %v", got, want)
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

		_, wantN, wantErr := readWAL(bytes.NewReader(data))
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
		want := dumpState(db)
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
			if got := dumpState(re); len(got) != 0 {
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
		if got := dumpState(re); !reflect.DeepEqual(got, want) {
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

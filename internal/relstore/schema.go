// Package relstore implements the embedded relational table store backing
// Chronos Control.
//
// The original Chronos stores its data model (projects, experiments,
// evaluations, jobs, systems, deployments, users) in MySQL/MariaDB. This
// reproduction is offline and stdlib-only, so relstore provides the same
// contract as the thin data layer Chronos needs: durable, transactional
// CRUD over typed tables with secondary indexes and equality scans.
//
// Durability follows the classic write-ahead log design: every committed
// transaction is recorded in a WAL of length- and CRC-framed records
// before it is acknowledged; a snapshot plus WAL replay restores the
// state on open.
//
// # Segmented WAL and background compaction
//
// The log is a sequence of numbered segment files (wal-00000001.seg,
// ...): the writer appends to the highest-numbered (active) segment and
// rotates to a fresh file — a close+open, nothing more — once it grows
// past Options.SegmentBytes. Sealed segments are immutable. Compaction
// is a background cycle, never part of the commit path: under one brief
// read lock it waits for the last enqueued group-commit batch (batches
// are written in enqueue order, so every commit applied so far is then
// durably logged), rotates so the boundary falls between segments and
// takes each table's rows as a slice in key order — the clone is exactly
// the sealed segments' contents, which a follower bootstrapping from the
// snapshot relies on — then marshals the snapshot outside every lock, in
// that order (so one state always writes the same bytes, and a reload
// appends every key), atomically installs it (recording the boundary
// segment number in its walSeq field) and deletes only the sealed
// segments it covers. Commits therefore never wait on snapshot
// serialisation or truncation; they wait for the cut once a cycle: one
// group commit, the O(1) rotation and the clone, one pointer copy per
// stored row.
//
// Recovery loads the snapshot, then replays segments walSeq+1..N in
// order — the walSeq recorded in the snapshot makes the live-segment
// set unambiguous without a separate manifest; each segment is read whole
// and parsed in place by readWAL, the one frame parser. A torn record
// (short frame or checksum mismatch, the expected artefact of a crash
// mid-append) is tolerated only at the tail of the highest-numbered
// segment, where it is truncated away so later writes can never be
// shadowed behind it; a torn record anywhere else, a gap in the segment
// numbering, or a frame whose checksum holds but whose payload does not
// decode, all mean acknowledged commits are unrecoverable and the store
// refuses to open. Segments at or below walSeq are leftovers of a
// compaction that crashed between the snapshot rename and the deletes;
// they are removed on open. A WAL write failure is sticky: the store
// poisons itself — further writes and compactions fail, since the
// in-memory state diverged from the log and must never become durable —
// and reopening recovers the last consistent logged state. The
// crash-injection harness in crash_test.go cuts the log at every frame
// boundary of a multi-segment workload and asserts recovery yields
// exactly the acknowledged commits.
//
// # Query planner
//
// A query is equality conditions and a limit, nothing more: callers that
// need another comparison apply it to the rows SelectFunc streams them.
// Reads go through a small planner (Tx.scan). Only string columns can be
// indexed, and each index maps a column's string value to its rows; every
// secondary index and the per-table primary-key list are sorted posting
// lists maintained on apply. A posting list is a sorted id slice and a
// live count; the rows are its membership record (an id is live in the
// list for a value when its row holds the value), so the lists hold no
// second copy of the keys and a scan looks each row up once. An Eq that
// gives an indexed column a value that is not a string matches nothing.
// For a query the planner picks the smallest posting list among all
// indexed Eq conditions as the scan driver; without an indexed condition
// the primary-key list drives, so even full scans never sort per query.
// Every Eq condition, indexed or not, is checked against each row the
// driver yields. Because both the driver
// and the transaction's pending writes stream in key order, Limit pushes
// down: the scan stops at the limit instead of materialising and sorting
// the full candidate set.
// Select clones matching rows; SelectFunc streams them without cloning
// and Count never clones or decodes at all.
//
// # Row format and versioning
//
// There is one on-disk format. Rows travel in a compact schema-versioned
// binary encoding (rowcodec.go) everywhere inside the store: WAL frames,
// snapshots, and the replication stream, which ships WAL bytes verbatim.
// JSON rows appear only at the REST edge. A binary row carries a uint32
// schema hash followed by self-describing (name, tag, value) fields in
// schema column order; the hash fingerprints the (key, column name,
// column type) layout. A table's schema is fixed when the table is
// created, so the hash must match: a row whose hash is not its table's
// is refused with ErrLegacyFormat. A column holds an int, string, bool,
// bytes or time; value encodings are lossless: times as (seconds,
// nanoseconds), bytes raw.
//
// Chronos archives and never deletes, so a transaction writes puts and
// sequence bumps, never deletes. A WAL frame payload (walcodec.go) is
// either an ops record, which starts with 0x01 and carries a
// transaction's puts and sequence bumps, or a CreateTable record, which
// is rare, starts with '{' and carries one Schema as JSON and nothing
// else. walcodec.go is the one place that writes and reads a payload:
// a commit's is encoded once, under the store lock, straight from its
// pending rows, and the WAL writer only frames it. A snapshot starts
// with the magic "CHRSNAP2" and holds each table's Schema as JSON ahead
// of its binary rows. Recovery, FollowerApply and snapshot load refuse,
// as a decode error and before anything is applied, a delete op
// (retired opcode 2), a value with the retired float tag (2), and a
// schema that fails Schema.Check.
//
// What an older build left behind is refused with ErrLegacyFormat:
// from a build that wrote JSON rows, a snapshot that starts with '{', a
// single-file store.wal in the directory, or a '{' frame that carries
// ops; from a build that upgraded schemas in place, a CreateTable record
// that re-declares an existing table with another schema, or a row whose
// schema hash is not its table's. Recovery, FollowerApply and snapshot
// load apply nothing of such a record, and CreateTable refuses, before
// it writes anything, a stored table whose schema differs from the one
// it is given. Open refuses before it truncates, renames or deletes
// anything, and the error names the way forward: open the store once
// with a build that reads it and let a compaction run after one write,
// which leaves a snapshot of that build's schemas and rows and no older
// frames, one hop at a time. (A follower's directory is a copy, so such
// a snapshot or frame in it is handled like any other unrecoverable
// replica state: the replica resets and re-bootstraps.)
//
// # Follower mode (WAL-shipping replication)
//
// A store opened with Options.Follower is a read-only replica: Update
// and CreateTable fail with ErrReadOnly, and state enters only through
// FollowerApply, which parses a chunk of raw WAL frames shipped from a
// leader in place, with recovery's parser: a chunk cut mid-frame applies
// its whole frames and is torn at the last frame boundary.
// The replica's directory is a byte-for-byte mirror of the leader's
// log: shipped frames are made durable locally first and applied to the
// in-memory tables second (the order recovery replays, so a crash
// between the two is harmless), segment numbering and byte offsets
// match the leader's exactly, and FollowerAdvanceSegment mirrors the
// leader's segment boundaries. A follower therefore restarts like any
// store — recover, then resume shipping from FollowerPosition — and
// compacts locally without rotating, so its disk stays bounded without
// leader involvement. When the leader has compacted the follower's
// position away, FollowerReinit wipes the replica and re-bootstraps it
// from a shipped snapshot while the *DB keeps serving reads. The leader
// side needs no mode at all: sealed segments are immutable files,
// ShipPosition bounds the active segment's shippable bytes to the
// durably committed prefix, and the snapshot names the boundary it
// covers. The HTTP ship protocol over this surface lives in
// internal/relstore/repl.
//
// # Store generations and commit positions
//
// Session-consistency tokens need two facts only the store can supply:
// which history a response was served from (a Generation) and how far
// into it (a Position). ReadPosition answers both under one lock hold:
// the durable position of the last acknowledged commit on a leader, the
// applied position on a replica. WaitFollowerApplied awaits a replica's
// applied position — the primitive behind the REST layer's read-after
// gate, waking on apply, context deadline, or store close. Positions
// are compared by Position.Covers alone.
//
// Positions from different histories must never be compared, so every
// durable store carries a generation (store.gen): a store id minted on
// first open plus an epoch bumped on every leader open. A crash or
// restart may silently discard an unsynced tail, so any position minted
// before a restart is only trustworthy against the history that
// actually survived — the epoch bump is what forces that re-proof. A
// follower never mints a generation; it records the leader generation
// it has verified its bytes against (SetFollowerGeneration), and
// FollowerReinit clears it until the re-bootstrap completes, so an
// unverified replica hands out no tokens and honours none. The
// verification protocol that decides adopt-vs-re-bootstrap lives in
// internal/relstore/repl; the token format and HTTP headers in
// internal/api.
//
// # Commit path and group commit
//
// DB.Update locks the store exclusively, runs its callback, applies the
// buffered writes to the in-memory tables and enqueues the WAL record's
// encoded payload, then releases the lock and only then waits for the
// group committer to make the record durable. Concurrent committers
// batch into a single WAL write and fsync, and a committer waits for its
// own batch only: batches are written one at a time in enqueue order,
// each by one of its own committers (the leader), and a leader that has
// written its batch returns, handing the lead to one waiter of the batch
// that queued up meanwhile. So a commit waits out at most the write
// ahead of its own, never the ones behind it. Update never acknowledges
// a commit before it is on stable storage (in SyncEveryCommit mode), but
// readers may observe a commit slightly before its fsync completes — the
// standard group-commit contract. No file IO — commit, snapshot write or
// rename — ever happens with the store lock held, with one exception: a
// compaction cycle seals the active segment (a file close and open)
// holding it shared, which is what makes its snapshot an exact cut.
//
// # Locking
//
// One RWMutex, DB.mu, guards the tables map and every table's contents:
// one writer at a time, readers on a shared cut (the shape of SQLite in
// WAL mode). Four contracts follow, and callers rely on them:
//
//   - An Update callback runs exactly once, serialised against every
//     other Update: it may capture results in outer variables and needs
//     no re-run hygiene.
//   - A View is one consistent cut across all tables for its whole
//     callback — a commit is fully visible or not at all — and delays
//     writers for as long as it runs, so it should read and return, not
//     do slow work.
//   - Committed values are immutable: a commit replaces a row rather
//     than editing it, and decoding a row from the log or a snapshot
//     copies its bytes. What a View read — a []byte column's slice
//     included — stays valid after the View and still belongs to its
//     cut, on a leader across later commits and compactions, on a
//     follower across later applies and a re-bootstrap. So a multi-row
//     read takes the bytes in the View and decodes them after it: the
//     decode is most of its cost, and writers wait for none of it
//     (TestRetainedBytesOutliveTheView). The caller's half: Get, Select
//     and SelectFunc hand out the stored row, to read and keep but never
//     to write to, nor to its []byte values. To change a row, copy it
//     (maps.Clone) and Put the copy; Put keeps the map it is given
//     (TestRetainedRowIsThePutRow).
//   - A callback must not open another transaction on the same store: an
//     Update inside any callback deadlocks, a View inside a View
//     deadlocks whenever a writer queues between the two.
//
// Knowingly given up: while a bulk Update holds the lock (a 1,000-variant
// evaluation submit is ~50 ms) no View proceeds, whichever tables it
// reads. RowCount and Stats are exempt on purpose — they read store-level
// atomics published under the lock and never take mu, so /metrics and
// /status never queue behind a bulk write.
//
// Readers of WAL position never take walMu, the lock of WAL IO: every
// change made under it ends by publishing one immutable state (the
// generation, the durable and applied positions, the active segment,
// whether the WAL is usable, a wake-up channel), and ReadPosition,
// ShipPosition, FollowerPosition, WaitFollowerApplied and Stats read
// that. None of them waits out a commit's fsync, so a session token or a
// /status answer never queues behind the next batch's disk write.
//
// Lock order: snapMu (compaction cycles, follower re-initialisation),
// then mu, then group.mu (O(1) sections ordering commit batches) or walMu
// (WAL appends, fsyncs, rotation, close). No writer and no View takes
// walMu with mu held; the compactor does, with mu shared, once per cycle, to cut its
// snapshot exactly at a segment boundary (DB.sealAndClone). The
// isolation contract — no dirty or ghost reads, commit-order visibility,
// every View a cross-table cut, writer serialisability — is verified
// mechanically under the race detector by internal/relstore/isocheck, on
// leader stores and against live follower replicas.
package relstore

import (
	"fmt"
	"time"
)

// ColType enumerates the column types supported by the store.
type ColType string

const (
	// TInt is a 64-bit signed integer column.
	TInt ColType = "int"
	// TString is a UTF-8 string column.
	TString ColType = "string"
	// TBool is a boolean column.
	TBool ColType = "bool"
	// TBytes is an arbitrary byte-string column.
	TBytes ColType = "bytes"
	// TTime is a timestamp column with nanosecond precision.
	TTime ColType = "time"
)

// Column declares one column of a table.
type Column struct {
	Name string  `json:"name"`
	Type ColType `json:"type"`
	// Indexed creates a secondary equality index over the column, which
	// must be a string column.
	Indexed bool `json:"indexed,omitempty"`
	// Nullable permits the column to be absent from a row.
	Nullable bool `json:"nullable,omitempty"`
}

// Schema declares a table: its name, primary key and columns. The primary
// key is always a string column named by Key and is implicitly indexed.
type Schema struct {
	Name    string   `json:"name"`
	Key     string   `json:"key"`
	Columns []Column `json:"columns"`
}

// Check validates the schema definition.
func (s *Schema) Check() error {
	if s.Name == "" {
		return fmt.Errorf("relstore: schema without table name")
	}
	if s.Key == "" {
		return fmt.Errorf("relstore: table %q without key column", s.Name)
	}
	seen := map[string]bool{}
	keyFound := false
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relstore: table %q has unnamed column", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("relstore: table %q has duplicate column %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		switch c.Type {
		case TInt, TString, TBool, TBytes, TTime:
		default:
			return fmt.Errorf("relstore: table %q column %q has unknown type %q", s.Name, c.Name, c.Type)
		}
		if c.Indexed && c.Type != TString {
			return fmt.Errorf("relstore: table %q column %q: only string columns can be indexed", s.Name, c.Name)
		}
		if c.Name == s.Key {
			keyFound = true
			if c.Type != TString {
				return fmt.Errorf("relstore: table %q key column must be string", s.Name)
			}
			if c.Nullable {
				return fmt.Errorf("relstore: table %q key column cannot be nullable", s.Name)
			}
		}
	}
	if !keyFound {
		return fmt.Errorf("relstore: table %q key column %q not declared", s.Name, s.Key)
	}
	return nil
}

// column returns the declaration of the named column.
func (s *Schema) column(name string) (Column, bool) {
	for _, c := range s.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// Row is a single record: column name to value. Value types are exactly
// int64, string, bool, []byte or time.Time, matching the column
// declaration.
type Row map[string]any

// validate checks the row against the schema: key present, all columns
// declared, types correct, non-nullable columns present.
func (s *Schema) validate(r Row) error {
	id, ok := r[s.Key].(string)
	if !ok || id == "" {
		return fmt.Errorf("relstore: table %q row without string key %q", s.Name, s.Key)
	}
	for name, v := range r {
		col, ok := s.column(name)
		if !ok {
			return fmt.Errorf("relstore: table %q has no column %q", s.Name, name)
		}
		if !typeMatches(col.Type, v) {
			return fmt.Errorf("relstore: table %q column %q: value %T does not match %s", s.Name, name, v, col.Type)
		}
	}
	for _, c := range s.Columns {
		if c.Nullable || c.Name == s.Key {
			continue
		}
		if _, ok := r[c.Name]; !ok {
			return fmt.Errorf("relstore: table %q row %q missing column %q", s.Name, id, c.Name)
		}
	}
	return nil
}

func typeMatches(t ColType, v any) bool {
	switch t {
	case TInt:
		_, ok := v.(int64)
		return ok
	case TString:
		_, ok := v.(string)
		return ok
	case TBool:
		_, ok := v.(bool)
		return ok
	case TBytes:
		_, ok := v.([]byte)
		return ok
	case TTime:
		_, ok := v.(time.Time)
		return ok
	}
	return false
}

package relstore

// This file is the replication surface of the store: everything the
// WAL-shipping layer (internal/relstore/repl) needs from either side of
// a leader/follower pair.
//
// Leader side: segments are immutable once sealed and the snapshot names
// its covered boundary (walSeq), so shipping is file serving plus one
// question — "how far is the active segment durable?" — answered by
// ShipPosition, whose notify channel lets the ship handler long-poll
// instead of busy-wait.
//
// Follower side: a store opened with Options.Follower mirrors the
// leader's WAL byte for byte. FollowerApply ingests shipped frames
// (local durability first, then in-memory apply — the same order
// recovery replays, so a crash between the two is harmless),
// FollowerAdvanceSegment mirrors the leader's segment boundaries, and
// FollowerReinit wipes and re-bootstraps from a shipped snapshot when
// the leader has compacted the follower's position away.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ShipPosition is the leader's durable replication position: a follower
// that has applied every byte up to (WALSeq, Durable) holds exactly the
// leader's acknowledged state.
type ShipPosition struct {
	// WALSeq is the active segment; every lower-numbered live segment is
	// sealed and immutable.
	WALSeq int64 `json:"walSeq"`
	// Durable is how many bytes of the active segment are durably
	// committed. Only these bytes may be shipped: bytes beyond them
	// could still vanish in a crash, and a follower must never get ahead
	// of what the leader can recover.
	Durable int64 `json:"durable"`
	// SnapshotSeq is the highest segment wholly covered by the durable
	// snapshot; segments at or below it may be deleted at any moment, so
	// a follower needing one must bootstrap from the snapshot instead.
	SnapshotSeq int64 `json:"snapshotSeq"`
	// Generation names the history the position is relative to — see
	// generation.go. A follower adopts it only after verifying its local
	// state belongs to that history, and refuses a status that names
	// none.
	Generation
}

// ShipPosition reports the current durable position plus a channel that
// is closed on the next WAL progress (new durable bytes, rotation,
// close, poisoning) — the long-poll primitive behind tail shipping. It
// fails once the store is closed or poisoned, or when the store has no
// WAL at all (OpenMemory).
func (db *DB) ShipPosition() (ShipPosition, <-chan struct{}, error) {
	if db.dir == "" {
		return ShipPosition{}, nil, errors.New("relstore: memory store has no WAL to ship")
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.closed {
		return ShipPosition{}, nil, errors.New("relstore: store is closed")
	}
	if db.walErr != nil {
		return ShipPosition{}, nil, fmt.Errorf("relstore: store failed a previous WAL write: %w", db.walErr)
	}
	if db.wal == nil {
		// A follower mid-FollowerReinit: there is no active segment to
		// ship from at this instant.
		return ShipPosition{}, nil, errors.New("relstore: store is re-initialising")
	}
	pos := ShipPosition{WALSeq: db.walSeq, Durable: db.wal.size, SnapshotSeq: db.snapSeq.Load(), Generation: db.gen}
	return pos, db.walNotify, nil
}

// SegmentPath returns the path of WAL segment seq inside the store
// directory, keeping the on-disk layout knowledge inside relstore. The
// file may not exist: sealed segments disappear when compaction covers
// them.
func (db *DB) SegmentPath(seq int64) string {
	return filepath.Join(db.dir, segmentName(seq))
}

// SnapshotFilePath returns the path of the store's snapshot file (which
// may not exist yet). The file is replaced atomically by rename, so an
// open descriptor always reads one consistent snapshot.
func (db *DB) SnapshotFilePath() string { return db.snapshotPath() }

// IsTornFrame reports whether err marks a WAL frame cut short mid-byte
// (a truncated ship chunk or a torn disk write) as opposed to data that
// is well-framed but undecodable. A follower retries torn frames from
// its durable position; anything else means divergence.
func IsTornFrame(err error) bool { return errors.Is(err, errTornRecord) }

// FollowerPosition reports where replication must resume: the follower's
// active segment (mirroring the leader's numbering) and the number of
// locally durable bytes it holds of it. Durable bytes may briefly run
// ahead of what is applied in memory (FollowerApply persists first,
// applies second — the order recovery replays); use ReadPosition and
// WaitFollowerApplied for read-visibility barriers.
func (db *DB) FollowerPosition() (seq, offset int64) {
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.wal == nil {
		// Mid-FollowerReinit (or after a failed one): the position is
		// moot — the orchestrator re-bootstraps before tailing again.
		return db.walSeq, 0
	}
	return db.walSeq, db.wal.size
}

// FollowerApply ingests a chunk of raw WAL frame bytes shipped from the
// leader's segment at exactly the follower's current position. The valid
// frame prefix is made durable locally first (a verbatim byte copy, so
// local offsets stay identical to the leader's), then applied to the
// in-memory tables — the same order recovery replays, so a crash between
// the two steps loses nothing and ghosts nothing.
//
// It returns how many bytes were consumed. A chunk cut mid-frame
// consumes the whole frames before the cut and returns an IsTornFrame
// error — the caller re-requests from the advanced position. No byte of
// a damaged, partial or undecodable frame is ever applied or written: a
// frame that is checksum-valid but does not decode — ErrLegacyFormat for
// one holding JSON rows — is refused like torn damage (nothing durable,
// no poison), just distinguishable via IsTornFrame. Only a frame that
// decodes but cannot be applied — divergent history referencing unknown
// state, or ErrLegacyFormat for a table re-declared with another schema
// or a row under another schema's hash — poisons the store after it is
// already durable locally; nothing of that frame's record is applied.
// FollowerReinit (or, after a crash, the follower-mode Open reset)
// clears that.
func (db *DB) FollowerApply(data []byte) (int64, error) {
	if !db.opts.Follower {
		return 0, errors.New("relstore: FollowerApply on a store not opened in follower mode")
	}
	recs, n, rerr := readWAL(data)
	if len(recs) > 0 {
		db.walMu.Lock()
		if db.closed {
			db.walMu.Unlock()
			return 0, errors.New("relstore: store is closed")
		}
		if db.walErr != nil {
			err := db.walErr
			db.walMu.Unlock()
			return 0, fmt.Errorf("relstore: store failed a previous WAL write: %w", err)
		}
		if db.wal == nil {
			db.walMu.Unlock()
			return 0, errors.New("relstore: store is re-initialising")
		}
		if err := db.wal.appendRaw(data[:n]); err != nil {
			err = db.poisonLocked(err)
			db.walMu.Unlock()
			return 0, err
		}
		if err := db.wal.commit(); err != nil {
			err = db.poisonLocked(err)
			db.walMu.Unlock()
			return 0, err
		}
		db.commitCount.Add(int64(len(recs)))
		db.bumpWALNotifyLocked()
		durSeq, durOff := db.walSeq, db.wal.size
		db.walMu.Unlock()

		// One exclusive hold of db.mu per record: readers observe every
		// replicated transaction atomically and get a turn between two.
		var aerr error
		for _, rec := range recs {
			db.mu.Lock()
			aerr = db.applyRecord(rec)
			db.publishCounts()
			db.mu.Unlock()
			if aerr != nil {
				break
			}
		}
		if aerr == nil {
			db.walMu.Lock()
			// Guard against a FollowerReinit that swapped the state out
			// while this chunk was applying: its position supersedes ours.
			if db.walSeq == durSeq && durOff > db.applied.Off {
				db.applied = Position{Seq: durSeq, Off: durOff}
				db.bumpWALNotifyLocked()
			}
			db.walMu.Unlock()
		}
		if aerr != nil {
			db.walMu.Lock()
			db.poisonLocked(aerr)
			db.walMu.Unlock()
			return n, aerr
		}
	}
	if rerr != nil {
		return n, rerr
	}
	db.maybeCompact()
	return n, nil
}

// FollowerAdvanceSegment seals the follower's active segment and opens
// the next one, mirroring a segment boundary the leader has signalled.
// Called only once every byte of the current segment has been applied.
func (db *DB) FollowerAdvanceSegment() error {
	if !db.opts.Follower {
		return errors.New("relstore: FollowerAdvanceSegment on a store not opened in follower mode")
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.closed {
		return errors.New("relstore: store is closed")
	}
	if db.walErr != nil {
		return fmt.Errorf("relstore: store failed a previous WAL write: %w", db.walErr)
	}
	if db.wal == nil {
		return errors.New("relstore: store is re-initialising")
	}
	if err := db.rotateLocked(); err != nil {
		return err
	}
	// Advance is called only once every byte of the sealed segment is
	// applied, so the applied position moves to the fresh segment's start
	// (rotateLocked has bumped walNotify; waiters re-check under walMu).
	db.applied = Position{Seq: db.walSeq}
	return nil
}

// FollowerReinit discards the follower's entire local state — in-memory
// tables, WAL segments and snapshot — and restores it from the shipped
// snapshot stream (nil to start empty, for leaders that have never
// compacted). It is the bootstrap path for a fresh replica and the
// recovery path when the leader has compacted the follower's position
// away, and it clears a poisoned WAL state: the old history is being
// replaced wholesale. The *DB stays valid throughout, so read traffic
// keeps being served (from the old state until the swap, the new state
// after).
func (db *DB) FollowerReinit(snapshot io.Reader) error {
	if !db.opts.Follower {
		return errors.New("relstore: FollowerReinit on a store not opened in follower mode")
	}
	// Exclude compaction for the whole re-initialisation: a cycle
	// walking the segment files mid-wipe would race the deletes. A
	// follower enqueues no commit, so its cut never waits on one and this
	// wait is bounded.
	db.snapMu.Lock()
	defer db.snapMu.Unlock()

	db.walMu.Lock()
	if db.closed {
		db.walMu.Unlock()
		return errors.New("relstore: store is closed")
	}
	if db.wal != nil {
		// The segment's contents are about to be deleted; a flush error
		// here is irrelevant.
		db.wal.Close()
		db.wal = nil
	}
	db.walErr = nil
	db.walFailed.Store(0)
	db.walMu.Unlock()

	// The generation claim describes the state being discarded; forget it
	// before any new state lands so a crash can never pair the new
	// snapshot with the old claim. The orchestrator records the new
	// generation (SetFollowerGeneration) once it knows the snapshot's
	// origin; until then token-gated reads fail closed.
	if err := db.clearGeneration(); err != nil {
		return db.reinitFailed(err)
	}

	// Delete every old segment (durably) BEFORE installing the new
	// snapshot. The old history may contain segments numbered above the
	// new snapshot's boundary — a follower re-bootstrapping because the
	// leader was restored from older data, say — and if any of them
	// survived a crash next to the new snapshot, recovery would replay
	// divergent history on top of it. With this order a crash leaves
	// either the old snapshot with no segments (a clean old-history
	// prefix; the next bootstrap attempt starts over) or the new
	// snapshot with no segments (exactly the target state).
	seqs, err := listSegments(db.dir)
	if err != nil {
		return db.reinitFailed(err)
	}
	for _, seq := range seqs {
		if err := os.Remove(filepath.Join(db.dir, segmentName(seq))); err != nil {
			return db.reinitFailed(err)
		}
	}
	// The deletes must be durable before the snapshot rename can be:
	// directory updates may be reordered otherwise, resurrecting the
	// old segments next to the new snapshot after power loss.
	if err := syncDir(db.dir); err != nil {
		return db.reinitFailed(err)
	}
	if snapshot != nil {
		tmp := db.snapshotPath() + ".tmp"
		if err := copyToFileSync(tmp, snapshot); err != nil {
			os.Remove(tmp)
			return db.reinitFailed(err)
		}
		if err := db.commitSnapshotTmp(tmp); err != nil {
			os.Remove(tmp)
			return db.reinitFailed(err)
		}
	} else {
		if err := os.Remove(db.snapshotPath()); err != nil && !os.IsNotExist(err) {
			return db.reinitFailed(err)
		}
		if err := syncDir(db.dir); err != nil {
			return db.reinitFailed(err)
		}
	}

	// Load the new state outside every lock, then swap it in.
	tables, snapSeq, err := readSnapshotFile(db.snapshotPath())
	if err != nil {
		// A corrupt shipped snapshot must not survive to the next open.
		os.Remove(db.snapshotPath())
		return db.reinitFailed(err)
	}
	w, err := openSegment(filepath.Join(db.dir, segmentName(snapSeq+1)), db.opts.Sync == SyncEveryCommit, db.opts.fileHook)
	if err != nil {
		return db.reinitFailed(err)
	}

	// Swap the whole table set: a View runs entirely before the swap or
	// entirely after it.
	db.mu.Lock()
	db.tables = tables
	db.publishCounts()
	db.mu.Unlock()

	db.walMu.Lock()
	db.wal = w
	db.walSeq = snapSeq + 1
	db.applied = Position{Seq: snapSeq + 1}
	db.commitCount.Store(0)
	db.snapSeq.Store(snapSeq)
	db.bumpWALNotifyLocked()
	db.walMu.Unlock()
	return nil
}

// OpenReset reports the recovery error that made a follower-mode Open
// wipe its unrecoverable replica directory and start empty (nil for a
// clean open). The orchestrator logs it; the state itself needs no
// action — the next bootstrap refills the replica.
func (db *DB) OpenReset() error { return db.openReset }

// resetReplicaDir deletes the replica's snapshot and every WAL segment
// and empties the in-memory tables, the recovery fallback for a
// follower directory whose mirrored history cannot be replayed.
func (db *DB) resetReplicaDir() error {
	if err := os.Remove(db.snapshotPath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	// The wiped state no longer backs the persisted generation claim.
	if err := os.Remove(filepath.Join(db.dir, generationFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	seqs, err := listSegments(db.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if err := os.Remove(filepath.Join(db.dir, segmentName(seq))); err != nil {
			return err
		}
	}
	if err := syncDir(db.dir); err != nil {
		return err
	}
	db.tables = make(map[string]*table)
	return nil
}

// reinitFailed re-poisons the store after a failed FollowerReinit: the
// WAL writer is gone and the on-disk state is part-wiped, so nothing
// may be applied until a new Reinit succeeds (it clears the poison).
func (db *DB) reinitFailed(err error) error {
	db.walMu.Lock()
	db.poisonLocked(err)
	db.walMu.Unlock()
	return err
}

// copyToFileSync streams r into a freshly truncated file at path and
// fsyncs it.
func copyToFileSync(path string, r io.Reader) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

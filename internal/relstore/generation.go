package relstore

// Store generation and position: the one answer to "which WAL history,
// and how far into it". A Generation is a persistent (id, epoch) pair
// that names one line of WAL history; a Position is a point in it.
// Session tokens and the replication protocol carry both, so that a
// commit position minted by one leader process can never be "satisfied"
// by state from a different history that happens to reuse the same
// segment numbering: positions are compared only within one generation,
// and only by Position.Covers.
//
//   - The id is minted once, the first time a directory is opened as a
//     leader, and never changes for the life of the store directory. Two
//     unrelated stores can never satisfy each other's tokens.
//   - The epoch increments on every leader open. A leader restart —
//     clean or from restored backup — therefore starts a new epoch, and
//     positions from different epochs are never compared: a follower
//     whose state was verified against epoch N refuses (rather than
//     guesses about) tokens from any other epoch. After a clean restart
//     the history is unchanged, so the replication layer re-verifies the
//     follower's local prefix against the new epoch byte for byte and
//     adopts it without a re-bootstrap; only a leader whose history
//     actually diverged forces the follower back to a snapshot.
//
// A follower does not mint generations. It records the generation its
// state was last verified against (SetFollowerGeneration), persisted in
// the same store.gen file so a follower restart keeps serving token
// reads without re-verification as long as the leader's epoch is
// unchanged. Every leader names its generation on every ship response;
// a follower refuses a response that names none.
//
// The file is advisory consistency metadata, not part of the data
// history: losing it costs one re-verification (follower) or mints a
// fresh id (leader, invalidating outstanding tokens — safe, tokens fail
// closed), never data.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// generationFile is the store.gen file name inside the store directory.
const generationFile = "store.gen"

// Generation names one line of WAL history. The JSON keys are the ones
// the ship protocol's status body carries.
type Generation struct {
	StoreID string `json:"storeId,omitempty"`
	Epoch   int64  `json:"epoch,omitempty"`
}

// String renders the header form, "id:epoch".
func (g Generation) String() string { return g.StoreID + ":" + strconv.FormatInt(g.Epoch, 10) }

// ParseGeneration decodes the header form produced by String. An empty
// or malformed value is an error: a generation is never guessed.
func ParseGeneration(s string) (Generation, error) {
	id, epoch, _ := strings.Cut(s, ":")
	n, err := strconv.ParseInt(epoch, 10, 64)
	if id == "" || err != nil || n < 1 {
		return Generation{}, fmt.Errorf("relstore: malformed generation %q", s)
	}
	return Generation{StoreID: id, Epoch: n}, nil
}

// Position is a point in one generation's WAL history: segment Seq,
// byte offset Off within it.
type Position struct {
	Seq int64
	Off int64
}

// Covers reports whether p is at or past o. It is meaningful only when
// both positions belong to the same Generation.
func (p Position) Covers(o Position) bool {
	return p.Seq > o.Seq || p.Seq == o.Seq && p.Off >= o.Off
}

// genFile is store.gen's JSON form.
type genFile struct {
	ID    string `json:"id"`
	Epoch int64  `json:"epoch"`
}

func newGenerationID() string {
	var b [6]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// loadGeneration reads dir's store.gen. A missing or malformed file is
// reported as absent, not an error: the file is advisory and the caller
// regenerates (leader) or re-verifies (follower) from nothing.
func loadGeneration(dir string) (Generation, bool) {
	data, err := os.ReadFile(filepath.Join(dir, generationFile))
	if err != nil {
		return Generation{}, false
	}
	var g genFile
	if err := json.Unmarshal(data, &g); err != nil || g.ID == "" || g.Epoch < 1 {
		return Generation{}, false
	}
	return Generation{StoreID: g.ID, Epoch: g.Epoch}, true
}

// writeGeneration durably replaces dir's store.gen (write temp, fsync,
// rename, fsync dir — a crash leaves either the old or the new file).
func writeGeneration(dir string, g Generation) error {
	data, err := json.Marshal(genFile{ID: g.StoreID, Epoch: g.Epoch})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, generationFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// initGeneration establishes the store's generation at Open time, after
// recovery succeeded. Leaders mint/bump; followers only adopt what a
// previous run verified (the replication orchestrator re-verifies and
// updates it whenever the leader's epoch moves).
func (db *DB) initGeneration() error {
	if db.opts.Follower {
		db.gen, _ = loadGeneration(db.dir)
		return nil
	}
	g, ok := loadGeneration(db.dir)
	if !ok {
		g = Generation{StoreID: newGenerationID()}
	}
	g.Epoch++
	if err := writeGeneration(db.dir, g); err != nil {
		return fmt.Errorf("relstore: persist store generation: %w", err)
	}
	db.gen = g
	return nil
}

// ReadPosition reports, under one hold of the WAL lock, the generation
// and the position this store's readers observe: on a leader the
// durable position of the last acknowledged commit, on a follower the
// applied position. Read right after an Update returns, it is a valid —
// if conservative — session token for that write.
//
// ok is false when the pair is no token: a memory store (no WAL to name
// a position in), a closed or poisoned leader, or a follower whose state
// is not verified against any leader generation yet (fresh replica, mid
// re-bootstrap). A follower's applied position is reported either way;
// its generation is then zero.
func (db *DB) ReadPosition() (gen Generation, pos Position, ok bool) {
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.opts.Follower {
		return db.gen, db.applied, db.gen.StoreID != ""
	}
	if db.dir == "" || db.closed || db.walErr != nil || db.wal == nil {
		return db.gen, Position{}, false
	}
	return db.gen, Position{Seq: db.walSeq, Off: db.wal.size}, true
}

// SetFollowerGeneration durably records the leader generation the
// follower's state is verified against. Only the replication
// orchestrator calls this, after it has either byte-compared the local
// WAL prefix with the leader's under the new epoch or replaced the state
// wholesale from the leader's snapshot.
func (db *DB) SetFollowerGeneration(g Generation) error {
	if !db.opts.Follower {
		return errors.New("relstore: SetFollowerGeneration on a store not opened in follower mode")
	}
	if g.StoreID == "" || g.Epoch < 1 {
		return fmt.Errorf("relstore: invalid generation %s", g)
	}
	if db.dir != "" {
		if err := writeGeneration(db.dir, g); err != nil {
			return err
		}
	}
	db.walMu.Lock()
	db.gen = g
	db.walMu.Unlock()
	return nil
}

// clearGeneration forgets the follower's verified generation (and its
// persisted record): the state it described is being discarded. Token
// reads fail closed (retryable), and the ship endpoints name no
// generation, until a new generation is verified.
func (db *DB) clearGeneration() error {
	if db.dir != "" {
		if err := os.Remove(filepath.Join(db.dir, generationFile)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	db.walMu.Lock()
	db.gen = Generation{}
	db.walMu.Unlock()
	return nil
}

// WaitFollowerApplied blocks until the follower's applied position —
// what reads actually observe — covers pos, the context is done, or the
// store closes. It compares positions only; the caller is responsible
// for ensuring pos comes from the same generation the follower's state
// is verified against, otherwise "covers" is meaningless. A poisoned
// replica's applied position stays put, so waiters simply run into
// their deadline (the orchestrator's re-bootstrap resets the position
// and wakes them).
func (db *DB) WaitFollowerApplied(ctx context.Context, pos Position) error {
	for {
		db.walMu.Lock()
		applied := db.applied
		closed := db.closed
		ch := db.walNotify
		db.walMu.Unlock()
		if applied.Covers(pos) {
			return nil
		}
		if closed {
			return errors.New("relstore: store is closed")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

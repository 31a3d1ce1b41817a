package relstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/metrics"
)

// ErrReadOnly is returned by every local mutation on a store opened in
// follower mode (Options.Follower): the only way state enters a follower
// is FollowerApply, fed by WAL frames shipped from the leader. Callers
// that may run against either role test with errors.Is and redirect the
// write to the leader.
var ErrReadOnly = errors.New("relstore: store is open in read-only follower mode")

// ErrLegacyFormat is wrapped by Open and FollowerApply when they meet an
// on-disk format this version does not read: a JSON snapshot, a
// single-file store.wal, or a WAL frame holding JSON rows. Open refuses
// before it changes anything in the directory.
var ErrLegacyFormat = errors.New("relstore: the store was written in a pre-binary on-disk format; " +
	"open it once with the last build that reads JSON rows and let one compaction run, then open it with this one")

// SyncMode controls when the WAL is flushed to stable storage.
type SyncMode int

const (
	// SyncEveryCommit fsyncs the WAL after each commit — maximum
	// durability, the default. Concurrent committers share fsyncs via
	// group commit: the write is acknowledged only once its batch is on
	// stable storage.
	SyncEveryCommit SyncMode = iota
	// SyncBatched lets the OS page cache absorb writes; a crash may lose
	// the most recent commits but never corrupts the store. Used by the
	// WAL ablation bench and acceptable for throwaway test stores.
	SyncBatched
)

// Options tunes DB behaviour.
type Options struct {
	// Sync selects the WAL flush policy.
	Sync SyncMode
	// CompactEvery triggers a background snapshot+segment-delete cycle
	// after this many committed transactions (0 = default 4096;
	// negative = never).
	CompactEvery int
	// SegmentBytes rotates the active WAL segment once it grows past
	// this size (0 = default 4 MiB). Compaction also rotates, so
	// snapshots always happen at a segment boundary.
	SegmentBytes int64
	// Follower opens the store in read-only replication mode: local
	// writes (Update, CreateTable) fail with ErrReadOnly and state is
	// mutated only through FollowerApply, which ingests WAL frames
	// shipped from a leader. A follower mirrors the leader's segment
	// numbering byte for byte, so it never rotates on size — segment
	// boundaries are dictated by the leader via FollowerAdvanceSegment —
	// and its background compaction snapshots sealed segments without
	// rotating. The directory is still exclusively locked: two followers
	// must not share a replica directory.
	Follower bool
	// Metrics, when non-nil, instruments the store's commit and
	// compaction paths into the registry (chronos_store_* series).
	// Handles are resolved once at Open; a nil registry costs the hot
	// path a single pointer check.
	Metrics *metrics.Registry
	// fileHook, when set, wraps every segment file the writer opens.
	// Test-only failpoint injection (crash simulation); not part of the
	// public API.
	fileHook func(walFile) walFile
}

// table is the in-memory state of one table, guarded — like the tables
// map that holds it — by DB.mu.
type table struct {
	schema Schema
	rows   map[string]Row // key -> row
	// keys lists the primary keys in sorted order so full scans iterate
	// without sorting per query.
	keys *postingList
	// indexes holds one sorted posting list per (column, value) pair.
	indexes map[string]map[string]*postingList
	seq     int64 // auto-increment sequence
	// codec is the binary row codec for the current schema, rebuilt on
	// upgrade. Commits encode rows through it under DB.mu, so the bytes a
	// WAL frame ships can never race an upgrade.
	codec rowCodec
}

// DB is an embedded, durable, transactional table store. All methods are
// safe for concurrent use.
//
// Locking (the package doc has the contracts callers rely on):
//   - db.mu guards the tables map and every table's contents. Update,
//     CreateTable, follower apply and FollowerReinit's table-set swap hold
//     it exclusively; View and the compactor's cut (sealAndClone) share
//     it. Tx operations take no lock of their own.
//   - group.mu only orders commit batches; it is held for O(1) sections.
//     With db.mu held exclusively it is the only lock ever taken.
//   - db.walMu serialises WAL segment writes, rotation and close. The
//     condition variable walCond (on walMu) publishes durable-LSN
//     progress to the compactor, which alone takes walMu with db.mu
//     held (shared): see sealAndClone for the order and why it is safe.
//   - db.snapMu serialises compaction cycles (background and manual).
//
// A committing Update applies its writes under db.mu, then releases it
// and waits for the group committer to make the batch durable (one WAL
// write + fsync may cover many concurrent commits).
// Update does not return success before its record is on stable storage,
// but concurrent readers may observe a commit slightly before it is
// durable — the same contract as group commit in classic databases. A WAL
// write failure is sticky: the in-memory state is ahead of the log at
// that point, so the store poisons itself — all further writes and
// compactions fail (the divergent state can never become durable) and
// reopening the store recovers the last consistent logged state.
type DB struct {
	dir  string
	opts Options
	// durable is set once at Open (false for OpenMemory) and never
	// changes, so the commit path can ask "is there a WAL at all?"
	// without touching walMu, where a group leader may be mid-fsync.
	durable bool

	mu     sync.RWMutex // guards the tables map and every table's contents
	tables map[string]*table
	// rowTotal and tableCount mirror the sum of len(rows) and len(tables).
	// publishCounts stores them before every exclusive release of mu;
	// RowCount and Stats read them without it, so a scrape or a status
	// poll never queues behind a bulk write.
	rowTotal, tableCount atomic.Int64

	walMu   sync.Mutex // serialises WAL writes, rotation and close
	walCond *sync.Cond // on walMu; signals durLSN/walErr/closed changes
	wal     *walWriter // active segment writer
	walSeq  int64      // sequence number of the active segment
	walErr  error      // sticky WAL failure; guarded by walMu
	// walNotify is closed and replaced whenever the durable WAL state
	// advances (new durable bytes, rotation, poisoning, close). The
	// replication ship handler long-polls it to stream the active
	// segment's tail to followers without busy-waiting. Guarded by walMu.
	walNotify chan struct{}
	// durLSN counts records durably committed to the WAL; guarded by
	// walMu, published via walCond. The compactor clones the tables only
	// once every commit they contain has reached the log, so a failed
	// (unacknowledged) WAL write can never leak into durable state
	// through a snapshot.
	durLSN int64
	// commitCount is written under walMu but read lock-free by
	// maybeCompact, so committers don't queue on walMu (where a group
	// leader may be mid-fsync) just to learn no compaction is due.
	commitCount atomic.Int64
	closed      bool

	// snapMu serialises compaction cycles (and follower re-initialisation,
	// which must exclude them); snapSeq is the WALSeq of the durable
	// snapshot — written only under snapMu, but atomic so Stats and the
	// ship handler read it without queueing behind a running cycle.
	snapMu  sync.Mutex
	snapSeq atomic.Int64

	// lock is the cross-process store-directory lock, held from Open to
	// Close.
	lock *dirLock

	// openReset records the recovery error that made a follower-mode
	// Open wipe the replica directory and start empty (nil otherwise).
	// Set once at Open; read via OpenReset.
	openReset error

	// appliedSeq/appliedOff name the follower position whose records are
	// applied to the in-memory tables, guarded by walMu. FollowerApply
	// makes shipped bytes durable first and applies them second, so the
	// durable position (wal.size — where shipping resumes) can briefly
	// run ahead of this one; convergence barriers must wait on the
	// applied position or they would declare a replica caught up while
	// its reads still serve older state.
	appliedSeq, appliedOff int64
	// appliedNotify is closed and replaced whenever the applied position
	// advances (or the store closes) — the wake-up primitive behind
	// WaitFollowerApplied, which token-gated follower reads block on.
	// Guarded by walMu.
	appliedNotify chan struct{}

	// genID/genEpoch are the store generation (see generation.go): the
	// identity of the WAL history that positions and session tokens are
	// relative to. Guarded by walMu; a leader's generation is fixed at
	// Open, a follower's moves as the replication orchestrator verifies
	// it against its leader.
	genID    string
	genEpoch int64

	// compacting gates the background compactor to one goroutine;
	// compactWG lets Close wait for an in-flight cycle. compactions and
	// compactErr feed Stats.
	compacting   atomic.Bool
	compactWG    sync.WaitGroup
	compactions  atomic.Int64
	compactErrMu sync.Mutex
	compactErr   error

	// met carries pre-resolved instrumentation handles (nil when
	// Options.Metrics was nil: instrumentation off).
	met *dbMetrics

	group groupCommitter
}

// groupCommitter batches concurrently committing transactions into a
// single WAL write + fsync. Records are enqueued in apply order (the
// enqueuer holds db.mu) and one committer — the leader — drains whole
// batches on behalf of everyone waiting on them.
type groupCommitter struct {
	mu      sync.Mutex
	cur     *walBatch // batch currently accumulating, nil if none
	writing bool      // a leader is flushing batches
	// enqueued counts records ever enqueued. Together with DB.durLSN it
	// tells the compactor when a state clone is fully logged.
	enqueued int64
}

// enqueuedLSN reports how many records have been enqueued so far.
func (g *groupCommitter) enqueuedLSN() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.enqueued
}

// walBatch is one group of commit records flushed by a single WAL write.
type walBatch struct {
	recs []walRecord
	done chan struct{}
	err  error
}

// Open loads (or creates) a store in dir. Pass opts as nil for defaults.
func Open(dir string, opts *Options) (*DB, error) {
	if opts == nil {
		opts = &Options{}
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 4096
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("relstore: create dir: %w", err)
	}
	lock, err := acquireDirLock(filepath.Join(dir, "store.lock"))
	if err != nil {
		return nil, err
	}
	db := &DB{
		dir:    dir,
		opts:   *opts,
		tables: make(map[string]*table),
		lock:   lock,
	}
	db.walCond = sync.NewCond(&db.walMu)
	db.walNotify = make(chan struct{})
	db.appliedNotify = make(chan struct{})
	if _, serr := os.Stat(filepath.Join(dir, "store.wal")); serr == nil {
		lock.release()
		return nil, fmt.Errorf("%w (the directory holds a single-file store.wal)", ErrLegacyFormat)
	}
	snapSeq, err := db.loadSnapshot()
	var maxSeq int64
	if err == nil {
		maxSeq, err = db.recoverSegments(snapSeq)
	}
	if err != nil {
		// A leader's history is precious: refuse to open. A replica's is
		// a copy by definition, and unrecoverable state here has a known
		// cause — a crash after durably mirroring shipped frames the
		// local state cannot apply (divergent leader history), or mid
		// re-bootstrap — so a follower resets to empty instead of
		// bricking; the replication orchestrator re-bootstraps it from
		// the leader's snapshot.
		if !opts.Follower {
			lock.release()
			return nil, err
		}
		if rerr := db.resetReplicaDir(); rerr != nil {
			lock.release()
			return nil, errors.Join(err, rerr)
		}
		db.openReset = err
		snapSeq, maxSeq = 0, 0
	}
	db.snapSeq.Store(snapSeq)
	db.publishCounts()
	var w *walWriter
	if opts.Follower && maxSeq > snapSeq {
		// The newest local segment mirrors a leader segment that may
		// still be growing: reopen it for append at its valid length
		// (recovery already truncated any torn tail) so replication
		// resumes exactly at the last durable byte. A leader never does
		// this — its recovery starts a fresh segment above everything on
		// disk — but a follower's bytes are a verbatim copy of the
		// leader's, so appending after existing content cannot shadow
		// anything.
		db.walSeq = maxSeq
		w, err = openSegmentAppend(filepath.Join(dir, segmentName(maxSeq)), opts.Sync == SyncEveryCommit, opts.fileHook)
	} else {
		// The active segment is always a fresh file above everything on
		// disk; recovery never appends after existing content.
		db.walSeq = maxSeq + 1
		w, err = openSegment(filepath.Join(dir, segmentName(db.walSeq)), opts.Sync == SyncEveryCommit, opts.fileHook)
	}
	if err != nil {
		lock.release()
		return nil, err
	}
	db.wal = w
	db.durable = true
	if err := db.initGeneration(); err != nil {
		w.Close()
		lock.release()
		return nil, err
	}
	// Recovery replayed every durable byte, so the applied position
	// starts equal to the durable one.
	db.appliedSeq, db.appliedOff = db.walSeq, w.size
	db.met = newDBMetrics(opts.Metrics, db)
	return db, nil
}

// OpenMemory returns an ephemeral store without any disk persistence,
// convenient for tests and examples.
func OpenMemory() *DB {
	db := &DB{
		opts:   Options{CompactEvery: -1},
		tables: make(map[string]*table),
	}
	db.walCond = sync.NewCond(&db.walMu)
	db.walNotify = make(chan struct{})
	db.appliedNotify = make(chan struct{})
	// A memory store still has an identity so its (never-replicated)
	// positions are unambiguous; there is just no file to persist it in.
	db.genID, db.genEpoch = newGenerationID(), 1
	return db
}

func (db *DB) snapshotPath() string { return filepath.Join(db.dir, "store.snapshot") }

// Close flushes and closes the WAL and waits for any in-flight
// background compaction cycle to wind down. The DB must not be used
// afterwards. An active segment nothing was written to is removed, so
// repeated open/close cycles don't accumulate empty segment files.
func (db *DB) Close() error {
	db.walMu.Lock()
	if db.closed {
		db.walMu.Unlock()
		return nil
	}
	db.closed = true
	var err error
	var emptySeg string
	if db.wal != nil {
		err = db.wal.Close()
		if err == nil && db.wal.size == 0 {
			emptySeg = filepath.Join(db.dir, segmentName(db.walSeq))
		}
	}
	db.walCond.Broadcast()
	db.bumpWALNotifyLocked()
	db.bumpAppliedNotifyLocked()
	db.walMu.Unlock()
	db.compactWG.Wait()
	// A manual Compact() may still be mid-cycle (compactWG only covers
	// background cycles): taking snapMu waits it out, so no snapshot
	// rename or segment delete can land after Close returns and the
	// directory lock below is released to a potential new owner.
	db.snapMu.Lock()
	db.snapMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	if emptySeg != "" {
		os.Remove(emptySeg)
	}
	db.lock.release()
	return err
}

// CreateTable registers a table. Creating an existing table with an equal
// schema is a no-op. An existing table with a compatible extension of its
// schema (added nullable columns, added or dropped index flags — see
// schemaUpgradable) is migrated in place, so applications can grow their
// schemas across versions without losing persisted data; any other
// schema change fails. Table creations and upgrades are durable via the
// WAL and, enqueued under db.mu like any commit, ordered before every
// commit that uses the new table or columns.
func (db *DB) CreateTable(s Schema) error {
	if db.opts.Follower {
		return ErrReadOnly
	}
	if err := s.Check(); err != nil {
		return err
	}
	batch, err := db.createTableLocked(s)
	if err != nil || batch == nil {
		return err
	}
	if err := db.awaitCommit(batch); err != nil {
		return err
	}
	db.maybeCompact()
	return nil
}

// createTableLocked is CreateTable's critical section; the returned batch
// is nil when there is nothing to wait for (no change, or no WAL).
func (db *DB) createTableLocked(s Schema) (*walBatch, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t := db.tables[s.Name]; t != nil {
		if schemaEqual(t.schema, s) {
			return nil, nil
		}
		if !schemaUpgradable(t.schema, s) {
			return nil, fmt.Errorf("relstore: table %q already exists with an incompatible schema", s.Name)
		}
	}
	rec := walRecord{CreateTable: &s}
	if err := db.applyRecord(rec); err != nil {
		return nil, err
	}
	db.publishCounts()
	if !db.durable {
		return nil, nil
	}
	return db.enqueueCommit(rec), nil
}

// Tables returns the names of all tables, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// ErrUnknownTable is wrapped by every operation that names a table the
// store does not have. Callers racing table creation — a follower's
// readers before the CreateTable record ships, say — test with
// errors.Is and retry.
var ErrUnknownTable = errors.New("relstore: unknown table")

// publishCounts refreshes the lock-free mirrors RowCount and Stats read.
// Caller holds db.mu exclusively (or owns the DB outright, at Open).
func (db *DB) publishCounts() {
	var rows int64
	for _, t := range db.tables {
		rows += int64(len(t.rows))
	}
	db.rowTotal.Store(rows)
	db.tableCount.Store(int64(len(db.tables)))
}

func newTable(s Schema) *table {
	t := &table{
		schema: s,
		rows:   make(map[string]Row),
		keys:   newPostingList(),
		codec:  newRowCodec(s),
	}
	t.initIndexes()
	return t
}

// initIndexes builds empty secondary-index containers for the current
// schema.
func (t *table) initIndexes() {
	t.indexes = make(map[string]map[string]*postingList)
	for _, c := range t.schema.Columns {
		if c.Name == t.schema.Key {
			continue
		}
		if c.Indexed {
			t.indexes[c.Name] = make(map[string]*postingList)
		}
	}
}

// upgrade rebuilds the table in place under a compatible replacement
// schema: the rows (and key list) carry over untouched, the secondary
// indexes are rebuilt from scratch so an added Indexed flag takes
// effect. Iterating ids in key order keeps every per-value posting-list
// insert an append, so the rebuild is linear in the table size.
func (t *table) upgrade(s Schema) {
	t.schema = s
	t.codec = newRowCodec(s)
	t.initIndexes()
	cur := plCursor{pl: t.keys}
	for {
		id, ok := cur.peek()
		if !ok {
			return
		}
		t.addToIndexes(id, t.rows[id])
		cur.next()
	}
}

// schemaUpgradable reports whether old can be migrated in place to new:
// the table and key names match, every old column survives with the same
// type (index flags may change freely, nullability may only loosen), and
// any brand-new column is nullable so existing rows stay valid.
func schemaUpgradable(old, new Schema) bool {
	if old.Name != new.Name || old.Key != new.Key {
		return false
	}
	for _, oc := range old.Columns {
		nc, ok := new.column(oc.Name)
		if !ok || nc.Type != oc.Type {
			return false
		}
		if oc.Nullable && !nc.Nullable {
			return false
		}
	}
	for _, nc := range new.Columns {
		if _, ok := old.column(nc.Name); !ok && !nc.Nullable {
			return false
		}
	}
	return true
}

func schemaEqual(a, b Schema) bool {
	if a.Name != b.Name || a.Key != b.Key || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	return true
}

// indexKey renders an indexed column value as a map key.
func indexKey(v any) string {
	switch x := v.(type) {
	case string:
		return "s:" + x
	case int64:
		return "i:" + strconv.FormatInt(x, 10)
	case float64:
		return "f:" + strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return "b:" + strconv.FormatBool(x)
	default:
		return fmt.Sprintf("x:%v", x)
	}
}

// addToIndexes registers a row in the table's secondary indexes.
func (t *table) addToIndexes(id string, r Row) {
	for col, idx := range t.indexes {
		v, ok := r[col]
		if !ok {
			continue
		}
		k := indexKey(v)
		pl := idx[k]
		if pl == nil {
			pl = newPostingList()
			idx[k] = pl
		}
		pl.add(id)
	}
}

// removeFromIndexes unregisters a row from the secondary indexes.
func (t *table) removeFromIndexes(id string, r Row) {
	for col, idx := range t.indexes {
		v, ok := r[col]
		if !ok {
			continue
		}
		k := indexKey(v)
		if pl := idx[k]; pl != nil {
			pl.remove(id)
			if pl.len() == 0 {
				delete(idx, k)
			}
		}
	}
}

// applyPut installs a typed row, maintaining the key list and secondary
// indexes.
func (t *table) applyPut(id string, row Row) {
	if old, ok := t.rows[id]; ok {
		t.rows[id] = row
		t.reindex(id, old, row)
		return
	}
	t.keys.add(id)
	t.rows[id] = row
	t.addToIndexes(id, row)
}

// reindex moves id between index entries for the columns whose value
// actually changed between old and new. An update that flips one status
// field — the scheduler's entire steady state — touches exactly that
// column's posting lists; every unchanged column costs one comparison
// and no key rendering.
func (t *table) reindex(id string, old, new Row) {
	for col, idx := range t.indexes {
		ov, ook := old[col]
		nv, nok := new[col]
		if ook && nok && valueEqual(ov, nv) {
			continue
		}
		if ook {
			k := indexKey(ov)
			if pl := idx[k]; pl != nil {
				pl.remove(id)
				if pl.len() == 0 {
					delete(idx, k)
				}
			}
		}
		if nok {
			k := indexKey(nv)
			pl := idx[k]
			if pl == nil {
				pl = newPostingList()
				idx[k] = pl
			}
			pl.add(id)
		}
	}
}

// applyDelete removes a row. Missing rows are a no-op (idempotent WAL
// replay).
func (t *table) applyDelete(id string) {
	if old, ok := t.rows[id]; ok {
		t.removeFromIndexes(id, old)
		delete(t.rows, id)
		t.keys.remove(id)
	}
}

// apply installs a committed WAL operation into the in-memory state,
// used on replay and follower apply.
func (t *table) apply(op walOp) error {
	switch op.Op {
	case opPut:
		row, err := t.codec.decodeRow(op.rowBin)
		if err != nil {
			return err
		}
		t.applyPut(op.ID, row)
	case opDelete:
		t.applyDelete(op.ID)
	case opSeq:
		if op.Seq > t.seq {
			t.seq = op.Seq
		}
	default:
		return fmt.Errorf("relstore: unknown WAL op %q", op.Op)
	}
	return nil
}

// Update runs fn inside a read-write transaction. If fn returns an error
// the transaction is rolled back (no state or WAL change); otherwise the
// buffered writes are committed atomically. Update returns only after
// the commit is durable per the configured SyncMode; the fsync may be
// shared with other transactions committing concurrently (group commit).
//
// fn runs exactly once, with the store locked exclusively from before its
// first read until its writes are applied: Update callbacks are
// serialisable, one at a time. fn must not open another transaction on
// the same store.
func (db *DB) Update(fn func(tx *Tx) error) error {
	if db.opts.Follower {
		return ErrReadOnly
	}
	tx := takeTx(db, true)
	batch, err := db.runUpdate(tx, fn)
	putTx(tx) // a panicking fn leaves the handle to the GC
	if err != nil {
		return err
	}
	if batch != nil {
		if err := db.awaitCommit(batch); err != nil {
			return err
		}
	}
	// Compaction is a background cycle: the commit path only checks a
	// counter and, when due, hands the work to a goroutine — it never
	// waits on snapshot marshalling or segment deletion.
	db.maybeCompact()
	return nil
}

// runUpdate is Update's critical section: run fn, apply and enqueue on
// success. The unlock is deferred so a panicking fn cannot strand db.mu.
func (db *DB) runUpdate(tx *Tx, fn func(tx *Tx) error) (*walBatch, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := fn(tx); err != nil {
		return nil, err
	}
	return db.commitApply(tx)
}

// txPool recycles Tx handles (and, through them, their bookkeeping maps
// and slices) so the steady-state commit path allocates no per-
// transaction machinery. A Tx goes back only on clean completion.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// takeTx returns a scrubbed transaction handle bound to db.
func takeTx(db *DB, writable bool) *Tx {
	tx := txPool.Get().(*Tx)
	tx.db = db
	tx.writable = writable
	return tx
}

// txPoolMaxEntries bounds the capacity a pooled Tx may carry back into
// the pool. clear() zeroes a map's whole bucket array, whose size is the
// map's high-water mark, not its current length — so recycling the maps
// of one bulk transaction (a 10k-row evaluation insert, a snapshot
// restore) would tax every later small transaction with an O(bulk)
// memclr. Oversized containers are dropped instead.
const txPoolMaxEntries = 128

// putTx scrubs tx and returns it to the pool.
func putTx(tx *Tx) {
	if len(tx.pending) > txPoolMaxEntries {
		tx.pending = nil
		tx.pendingOrder = nil
	} else {
		clear(tx.pending)
		// Zero the dropped keys so the pool does not pin their strings.
		clear(tx.pendingOrder)
		tx.pendingOrder = tx.pendingOrder[:0]
	}
	if len(tx.seqs) > txPoolMaxEntries {
		tx.seqs = nil
	} else {
		clear(tx.seqs)
	}
	tx.db = nil
	tx.writable = false
	txPool.Put(tx)
}

// View runs fn inside a read-only transaction with the store locked
// shared for fn's whole duration: every read in fn, on any table,
// observes one committed state — a commit is either fully visible or
// not at all. The price is that writers wait while fn runs, so fn should
// read and return, and must not open another transaction on the same
// store (a writer queued between the two would deadlock them).
//
// What fn reads may be kept after View returns, read-only: a committed
// row is never mutated — a commit replaces it, and every decode from the
// log or a snapshot copies its bytes — so values taken in fn, []byte
// columns included, stay valid and still belong to fn's cut. Take the
// bytes in fn and decode them after it.
func (db *DB) View(fn func(tx *Tx) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tx := takeTx(db, false)
	err := fn(tx)
	putTx(tx) // a panicking fn leaves the handle to the GC
	return err
}

// commitApply applies the transaction's buffered writes to the in-memory
// tables directly from their typed form (no encode/decode round-trip)
// and, for durable stores, enqueues the WAL record. The caller holds
// db.mu exclusively — the enqueue happens before it is released so that
// WAL order is apply order, and so each put's binary row bytes are fixed
// before any later schema upgrade on its table. Rows are encoded in a
// first pass, before any in-memory mutation: an encode failure
// (unreachable for rows that passed validation, but never silently
// absorbed) rolls back clean. The returned batch — nil for memory stores
// and empty transactions — must be awaited after db.mu is released.
func (db *DB) commitApply(tx *Tx) (*walBatch, error) {
	if len(tx.pendingOrder) == 0 && len(tx.seqs) == 0 {
		return nil, nil
	}
	durable := db.durable
	var rec walRecord
	if durable {
		rec.Ops = make([]walOp, 0, len(tx.pendingOrder)+len(tx.seqs))
		// One backing buffer for every row of the record: each op's rowBin
		// is a capacity-capped subslice, so a growth reallocation mid-loop
		// leaves earlier subslices valid in the old array.
		encBuf := make([]byte, 0, 512)
		for _, pk := range tx.pendingOrder {
			row := tx.pending[pk]
			if row == nil {
				rec.Ops = append(rec.Ops, walOp{Op: opDelete, Table: pk.table, ID: pk.id})
				continue
			}
			start := len(encBuf)
			var err error
			encBuf, err = db.tables[pk.table].codec.appendRow(encBuf, row)
			if err != nil {
				return nil, err
			}
			rec.Ops = append(rec.Ops, walOp{Op: opPut, Table: pk.table, ID: pk.id, rowBin: encBuf[start:len(encBuf):len(encBuf)]})
		}
	}
	for _, pk := range tx.pendingOrder {
		row := tx.pending[pk]
		t := db.tables[pk.table]
		if row == nil {
			t.applyDelete(pk.id)
		} else {
			// The pending row was cloned on Put and the tx is recycled with
			// this commit, so ownership transfers without another copy.
			t.applyPut(pk.id, row)
		}
	}
	// Deterministic sequence ordering. Most transactions advance zero or
	// one sequence, so the names fit an inline array and slices.Sort
	// (unlike sort.Strings) boxes nothing.
	var tbuf [8]string
	tables := tbuf[:0]
	for tbl := range tx.seqs {
		tables = append(tables, tbl)
	}
	slices.Sort(tables)
	for _, tbl := range tables {
		n := tx.seqs[tbl]
		if t := db.tables[tbl]; n > t.seq {
			t.seq = n
		}
		if durable {
			rec.Ops = append(rec.Ops, walOp{Op: opSeq, Table: tbl, Seq: n})
		}
	}
	db.publishCounts()
	if !durable || len(rec.Ops) == 0 {
		return nil, nil
	}
	return db.enqueueCommit(rec), nil
}

// enqueueCommit appends rec to the currently accumulating batch. Callers
// hold db.mu exclusively, so batch order equals apply order.
func (db *DB) enqueueCommit(rec walRecord) *walBatch {
	g := &db.group
	g.mu.Lock()
	if g.cur == nil {
		g.cur = &walBatch{done: make(chan struct{})}
	}
	b := g.cur
	b.recs = append(b.recs, rec)
	g.enqueued++
	g.mu.Unlock()
	return b
}

// awaitCommit blocks until b is durable. The first waiter to find no
// active leader becomes one and flushes batches — its own and any that
// accumulate while it is writing — so every fsync covers all commits
// that queued up behind the previous one. Called without db.mu.
func (db *DB) awaitCommit(b *walBatch) error {
	g := &db.group
	g.mu.Lock()
	if !g.writing && g.cur == b {
		g.writing = true
		for g.cur != nil {
			batch := g.cur
			g.cur = nil
			g.mu.Unlock()
			batch.err = db.writeBatch(batch.recs)
			close(batch.done)
			g.mu.Lock()
		}
		g.writing = false
	}
	g.mu.Unlock()
	<-b.done
	return b.err
}

// writeBatch appends a batch of records to the active WAL segment with a
// single flush (and fsync, in SyncEveryCommit mode) at the end, then
// rotates the segment if it has grown past the threshold. Rotation is a
// close+open — no snapshotting happens on the commit path.
func (db *DB) writeBatch(recs []walRecord) error {
	// start stays zero for unsampled batches: the latency summary is
	// sampled 1-in-8 so the common case pays no clock reads at all.
	var start time.Time
	if db.met != nil && db.met.sampleLatency() {
		start = time.Now()
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.closed {
		return fmt.Errorf("relstore: store is closed")
	}
	if db.walErr != nil {
		return fmt.Errorf("relstore: store failed a previous WAL write: %w", db.walErr)
	}
	for _, rec := range recs {
		if err := db.wal.append(rec); err != nil {
			db.poisonLocked(err)
			return err
		}
	}
	if err := db.wal.commit(); err != nil {
		db.poisonLocked(err)
		return err
	}
	if db.met != nil {
		db.met.commitObserved(len(recs), start, db.opts.Sync == SyncEveryCommit)
	}
	db.durLSN += int64(len(recs))
	db.commitCount.Add(int64(len(recs)))
	db.walCond.Broadcast()
	db.bumpWALNotifyLocked()
	if db.wal.size >= db.opts.SegmentBytes {
		// The batch is already durable, so a rotation failure poisons
		// the store (no writer to append to any more) but still
		// acknowledges this commit.
		db.rotateLocked()
	}
	return nil
}

// poisonLocked records a sticky WAL failure. Caller holds walMu.
func (db *DB) poisonLocked(err error) {
	if db.walErr == nil {
		db.walErr = err
	}
	db.walCond.Broadcast()
	db.bumpWALNotifyLocked()
}

// bumpWALNotifyLocked wakes everyone long-polling for WAL progress
// (replication ship handlers) by closing the current notification
// channel and installing a fresh one. Caller holds walMu.
func (db *DB) bumpWALNotifyLocked() {
	close(db.walNotify)
	db.walNotify = make(chan struct{})
}

// rotateLocked seals the active segment and opens the next one. Caller
// holds walMu. On failure the store is poisoned: without an intact
// active segment no further write could become durable.
func (db *DB) rotateLocked() error {
	if err := db.wal.Close(); err != nil {
		db.poisonLocked(err)
		return err
	}
	next, err := openSegment(filepath.Join(db.dir, segmentName(db.walSeq+1)), db.opts.Sync == SyncEveryCommit, db.opts.fileHook)
	if err != nil {
		db.poisonLocked(err)
		return err
	}
	db.walSeq++
	db.wal = next
	db.bumpWALNotifyLocked()
	return nil
}

// maybeCompact starts a background compaction cycle once enough commits
// have accumulated. It never blocks the caller: the check is a lock-free
// counter read and the cycle itself runs in its own goroutine (one at a
// time). Must be called without holding db.mu.
func (db *DB) maybeCompact() {
	if !db.durable || db.opts.CompactEvery <= 0 {
		return
	}
	if db.commitCount.Load() < int64(db.opts.CompactEvery) {
		return
	}
	if !db.compacting.CompareAndSwap(false, true) {
		return // a cycle is already running
	}
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		defer db.compacting.Store(false)
		err := db.compactCycle()
		db.compactErrMu.Lock()
		db.compactErr = err
		db.compactErrMu.Unlock()
	}()
}

// Compact runs one full compaction cycle synchronously: rotate, write a
// snapshot covering every sealed segment, delete them. Safe to call at
// any time and concurrently with commits — only the rotation itself
// briefly holds the WAL lock.
func (db *DB) Compact() error {
	if !db.durable {
		return nil
	}
	return db.compactCycle()
}

// WaitCompaction blocks until no background compaction cycle is in
// flight. Tests and orderly shutdowns use it to observe a settled store;
// it does not trigger anything itself.
func (db *DB) WaitCompaction() {
	db.compactWG.Wait()
}

// sealAndClone makes the cut a snapshot is taken at and returns the table
// clones with the boundary they stand for (clones are nil when nothing
// was sealed since the last snapshot).
//
// The cut is exact: the clone holds every record of segments <= boundary
// and nothing of segment boundary+1. A follower that bootstraps from the
// snapshot starts applying boundary+1 at offset 0 while it serves reads,
// so a snapshot that already held some of that segment's commits would
// show its readers state going backwards as the older frames re-apply.
// Exactness needs three things to happen with no commit in between, and
// db.mu held shared is what keeps commits out (applying and enqueueing
// both need it exclusively): every record enqueued so far is durable — so
// none is applied but still unwritten when the segment is cut, to land in
// boundary+1 —, the segment is sealed, the tables are cloned.
//
// Lock order: snapMu (the caller's), then db.mu shared, then walMu. This
// is the one place walMu is taken, and file IO done (a segment close and
// open), with db.mu held; nothing takes db.mu with walMu held, and the
// group leader that makes the awaited records durable needs only group.mu
// and walMu, so the wait cannot block on this goroutine. Writers stall for
// at most one group commit plus the rotation, once per cycle.
func (db *DB) sealAndClone() (clones []tableClone, boundary int64, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	lsn := db.group.enqueuedLSN()

	db.walMu.Lock()
	for db.walErr == nil && !db.closed && db.durLSN < lsn {
		db.walCond.Wait()
	}
	if db.closed {
		db.walMu.Unlock()
		return nil, 0, fmt.Errorf("relstore: store is closed")
	}
	if db.walErr != nil {
		err := db.walErr
		db.walMu.Unlock()
		// The in-memory state may contain a transaction whose Update
		// returned an error. Snapshotting it (and deleting segments)
		// would silently make that failed commit durable, so a poisoned
		// store refuses to compact.
		return nil, 0, fmt.Errorf("relstore: store failed a previous WAL write: %w", err)
	}
	if !db.opts.Follower && db.wal.size > 0 {
		// Followers never rotate: their segment numbering mirrors the
		// leader's, so local compaction covers only the segments the
		// leader has already sealed (and a follower's own snapshot is
		// not an exact cut: it also holds what it applied of the active
		// segment, which its recovery replays over it idempotently).
		if err := db.rotateLocked(); err != nil {
			db.walMu.Unlock()
			return nil, 0, err
		}
	}
	boundary = db.walSeq - 1
	db.walMu.Unlock()

	if boundary <= db.snapSeq.Load() {
		return nil, boundary, nil
	}
	return db.cloneStateLocked(), boundary, nil
}

// compactCycle is one snapshot+delete round:
//
//  1. Cut (sealAndClone): with the store locked shared, wait out the
//     commits still on their way to disk, rotate so every record so far
//     lives in a sealed segment — the boundary is the sealed segment with
//     the highest number — and clone the table maps. The clone is exactly
//     the contents of segments <= boundary.
//  2. Encode and write the snapshot outside all locks. Commits proceed in
//     parallel, into segments above the boundary.
//  3. Fsync + rename the snapshot (the commit point), then delete the
//     sealed segments it covers. A store that was closed or poisoned
//     meanwhile aborts instead.
func (db *DB) compactCycle() error {
	var start time.Time
	if db.met != nil {
		start = time.Now()
	}
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	// Re-arm the trigger up front: if this cycle fails (disk full, say),
	// the next attempt comes after another CompactEvery commits rather
	// than on every commit, which would force a rotation per commit
	// exactly when the disk is struggling.
	db.commitCount.Store(0)

	clones, boundary, err := db.sealAndClone()
	if err != nil {
		return err
	}
	if clones == nil {
		return nil // nothing sealed since the last snapshot
	}

	// Stream the snapshot into the temp file: memory stays O(one encoded
	// row) instead of the whole marshalled store.
	tmp := db.snapshotPath() + ".tmp"
	if err := writeSnapshotTmp(tmp, clones, boundary); err != nil {
		os.Remove(tmp)
		return err
	}

	// Abort on close: Close may release the cross-process lock the moment
	// we return, and a snapshot rename racing a new owner of the directory
	// could orphan that owner's segments. A poisoned store refuses to
	// compact whatever the clone holds.
	db.walMu.Lock()
	closed, werr := db.closed, db.walErr
	db.walMu.Unlock()
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("relstore: store failed a previous WAL write: %w", werr)
	}
	if closed {
		os.Remove(tmp)
		return fmt.Errorf("relstore: store closed during compaction")
	}

	if err := db.commitSnapshotTmp(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	db.snapSeq.Store(boundary)
	for seq := boundary; seq >= 1; seq-- {
		path := filepath.Join(db.dir, segmentName(seq))
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				break // older segments were deleted by earlier cycles
			}
			return err
		}
	}
	db.compactions.Add(1)
	if db.met != nil {
		db.met.compactSecs.ObserveDuration(time.Since(start))
	}
	return nil
}

// Stats reports store-level counters, mainly for tests and the UI footer.
type Stats struct {
	Tables int `json:"tables"`
	Rows   int `json:"rows"`
	// WALSizeB is the total size of all live WAL segments; WALSegments
	// counts them (including the active one).
	WALSizeB    int `json:"walSizeBytes"`
	WALSegments int `json:"walSegments"`
	Snapshots   int `json:"snapshots"`
	// WALSeq is the active segment's sequence number; SnapshotSeq the
	// highest segment wholly covered by the durable snapshot. Together
	// they name the replication boundary a follower can bootstrap from.
	WALSeq      int64 `json:"walSeq"`
	SnapshotSeq int64 `json:"snapshotSeq"`
	// Follower reports read-only replication mode; AppliedBytes is then
	// the locally durable byte offset within segment WALSeq — the
	// position the follower resumes shipping from. (It can run a beat
	// ahead of what reads observe: see FollowerAppliedPosition.)
	Follower     bool  `json:"follower,omitempty"`
	AppliedBytes int64 `json:"appliedBytes,omitempty"`
	// Compactions counts completed snapshot+delete cycles since open;
	// LastCompactErr carries the most recent background cycle failure
	// ("" when the last cycle succeeded).
	Compactions    int64  `json:"compactions"`
	LastCompactErr string `json:"lastCompactErr,omitempty"`
}

// RowCount reports the rows resident across all tables. It reads the
// mirror publishCounts maintains and takes no lock, so it can run at any
// frequency — it is what the chronos_store_rows gauge scrapes.
func (db *DB) RowCount() int64 { return db.rowTotal.Load() }

// Stats returns current store statistics. Table and row counts come from
// the mirrors publishCounts maintains, so Stats never takes db.mu and
// cannot queue behind a transaction — a scrape or UI poll is invisible
// to writers, and a bulk write is invisible to it.
func (db *DB) Stats() Stats {
	st := Stats{Tables: int(db.tableCount.Load()), Rows: int(db.rowTotal.Load())}
	if db.dir != "" {
		if seqs, err := listSegments(db.dir); err == nil {
			st.WALSegments = len(seqs)
			for _, seq := range seqs {
				if fi, err := os.Stat(filepath.Join(db.dir, segmentName(seq))); err == nil {
					st.WALSizeB += int(fi.Size())
				}
			}
		}
		if _, err := os.Stat(db.snapshotPath()); err == nil {
			st.Snapshots = 1
		}
	}
	if db.durable {
		db.walMu.Lock()
		st.WALSeq = db.walSeq
		if db.opts.Follower {
			st.Follower = true
			if db.wal != nil {
				st.AppliedBytes = db.wal.size
			}
		}
		db.walMu.Unlock()
		st.SnapshotSeq = db.snapSeq.Load()
	}
	st.Compactions = db.compactions.Load()
	db.compactErrMu.Lock()
	if db.compactErr != nil {
		st.LastCompactErr = db.compactErr.Error()
	}
	db.compactErrMu.Unlock()
	return st
}

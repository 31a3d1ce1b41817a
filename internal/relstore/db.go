package relstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
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

// ErrWALFailed is wrapped by the error of a write whose WAL append or
// fsync failed, and by that of every write the store refuses after a WAL
// failure (an append, fsync or rotation, or on a follower an apply) until
// it is reopened or re-bootstrapped. The fault is the store's, not the
// caller's.
var ErrWALFailed = errors.New("relstore: WAL failed")

// ErrLegacyFormat is wrapped wherever the store meets what an older build
// wrote and this one does not read, and each wrap names the form it met.
// Open, FollowerApply and snapshot load meet a JSON snapshot, a
// single-file store.wal, a WAL frame holding JSON rows, a CreateTable
// record that re-declares a table with another schema, or a row whose
// schema hash is not its table's; CreateTable meets a stored table whose
// schema differs from the one it is given. Open and CreateTable refuse
// before they change anything in the directory.
var ErrLegacyFormat = errors.New("relstore: the store was written by an older build in a format this one does not read; " +
	"upgrade it one hop at a time, each hop one open with chronos-control -compact-every 1 and one write: " +
	"a store with JSON rows under the last build that reads them, then a store whose table schemas differ " +
	"under a build from 9c11351 through f42ba31 (leader first), then this build " +
	"(README: Upgrading a store written by an older build)")

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
	// Only string columns are indexed, so a value is its own map key.
	indexes map[string]map[string]*postingList
	seq     int64 // auto-increment sequence
	// codec is the binary row codec for the table's schema, which never
	// changes while the table exists.
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
//   - db.walMu is the lock of WAL IO: segment appends, fsyncs, rotation
//     and close, and the follower's apply and re-bootstrap. The compactor
//     alone takes walMu with db.mu held (shared): see sealAndClone for the
//     order and why it is safe. Readers of WAL state never take it: every
//     change made under walMu ends by publishing an immutable walState,
//     which ReadPosition, ShipPosition, FollowerPosition,
//     WaitFollowerApplied and Stats load instead.
//   - db.snapMu serialises compaction cycles (background and manual).
//
// A committing Update applies its writes under db.mu, then releases it
// and waits for its own batch to be made durable (one WAL write + fsync
// may cover many concurrent commits): it waits out the batch being
// written ahead of it, never the batches queued behind it.
// Update does not return success before its record is on stable storage,
// but concurrent readers may observe a commit slightly before it is
// durable — the same contract as group commit in classic databases. A WAL
// write failure is sticky: the in-memory state is ahead of the log at
// that point, so the store poisons itself — all further writes and
// compactions fail (the divergent state can never become durable) and
// reopening the store recovers the last consistent logged state.
type DB struct {
	// dir is "" for OpenMemory and set once at Open otherwise, so "is
	// there a WAL at all?" needs no lock.
	dir  string
	opts Options

	mu     sync.RWMutex // guards the tables map and every table's contents
	tables map[string]*table
	// rowTotal and tableCount mirror the sum of len(rows) and len(tables).
	// publishCounts stores them before every exclusive release of mu;
	// RowCount and Stats read them without it, so a scrape or a status
	// poll never queues on mu behind a bulk write.
	rowTotal, tableCount atomic.Int64

	walMu  sync.Mutex // serialises WAL IO: appends, fsyncs, rotation, close
	wal    *walWriter // active segment writer
	walSeq int64      // sequence number of the active segment
	walErr error      // sticky WAL failure; guarded by walMu
	// walView is the WAL state readers see, replaced by publishWALLocked
	// after every change to walSeq, wal, walErr, closed, applied or gen.
	walView atomic.Pointer[walState]
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

	// applied is the follower position whose records are applied to the
	// in-memory tables, guarded by walMu (readers load walView).
	// FollowerApply makes shipped bytes durable first and applies them
	// second, so the durable position (wal.size — where shipping
	// resumes) can briefly run ahead of this one; convergence barriers must wait on the applied
	// position or they would declare a replica caught up while its reads
	// still serve older state.
	applied Position

	// gen is the store generation (see generation.go): the identity of
	// the WAL history that positions and session tokens are relative to.
	// Guarded by walMu (readers load walView); a leader's generation is
	// fixed at Open, a follower's moves as the replication orchestrator
	// verifies it against its leader.
	gen Generation

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
// enqueuer holds db.mu) and batches are written one at a time, in enqueue
// order, each by one of its own committers (see awaitCommit).
type groupCommitter struct {
	mu      sync.Mutex
	cur     *walBatch // batch currently accumulating, nil if none
	writing bool      // a leader is writing a batch
	// heir is set while one of cur's committers waits on lead (whose L
	// is mu) for writing to end, to lead cur next. There is at most one
	// heir, so the leader that ends wakes it with a Signal.
	heir bool
	lead sync.Cond
	// last is the done channel of the batch the newest record joined
	// (nil before the first). Batches are written in enqueue order, so
	// once it is closed every record enqueued so far has been written or
	// has failed: the compactor's cut waits on it.
	last chan struct{}
}

// walBatch is one group of commit records flushed by a single WAL write,
// each an encoded frame payload.
type walBatch struct {
	payloads [][]byte
	done     chan struct{}
	err      error
}

// walState is one immutable reading of the WAL, published under walMu by
// publishWALLocked. Its readers load the newest one and take no lock, so
// none of them waits out a commit's fsync.
type walState struct {
	gen Generation
	// seq is the active segment and size how many of its bytes are
	// durable (0 while a follower re-bootstraps and has no writer).
	seq, size int64
	applied   Position // a follower's applied position
	// usable is walUsableLocked's answer (errClosed once closed); walErr
	// is the sticky failure alone.
	usable, walErr error
	// notify is closed when the next state is published: a long-poll on
	// WAL progress (new durable bytes, rotation, poisoning, close, an
	// applied chunk, a re-bootstrap, a generation change). Each waiter
	// re-checks its own condition on waking.
	notify chan struct{}
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
	db.group.lead.L = &db.group.mu
	if _, serr := os.Stat(filepath.Join(dir, "store.wal")); serr == nil {
		lock.release()
		return nil, fmt.Errorf("%w (the directory holds a single-file store.wal)", ErrLegacyFormat)
	}
	tables, snapSeq, err := readSnapshotFile(db.snapshotPath())
	var maxSeq int64
	if err == nil {
		db.tables = tables
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
	if err := db.initGeneration(); err != nil {
		w.Close()
		lock.release()
		return nil, err
	}
	// Recovery replayed every durable byte, so the applied position
	// starts equal to the durable one.
	db.applied = Position{Seq: db.walSeq, Off: w.size}
	db.publishWALLocked()
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
	db.group.lead.L = &db.group.mu
	// A memory store still has an identity so its (never-replicated)
	// positions are unambiguous; there is just no file to persist it in.
	db.gen = Generation{StoreID: newGenerationID(), Epoch: 1}
	db.publishWALLocked()
	return db
}

func (db *DB) snapshotPath() string { return filepath.Join(db.dir, "store.snapshot") }

// Close flushes and closes the WAL and waits for any in-flight
// background compaction cycle to wind down. The DB must not be used
// afterwards. A leader's active segment that nothing was written to is
// removed, so repeated open/close cycles don't accumulate empty segment
// files. A follower keeps its own: it names the position it applied to,
// and a follower stopped at a segment's start reopened one segment back
// would be below a snapshot that covers that segment, and re-bootstrap.
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
		if err == nil && db.wal.size == 0 && !db.opts.Follower {
			emptySeg = filepath.Join(db.dir, segmentName(db.walSeq))
		}
	}
	db.publishWALLocked()
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

// CreateTable registers the store's tables. A table the store already
// holds under an equal schema is left as it is; each new one is logged as
// one CreateTable record, enqueued under db.mu like any commit and so
// ordered before every commit that uses it. A table's schema never
// changes: when a table the store holds differs from its schema here,
// the whole call is refused with ErrLegacyFormat before anything is
// written or created.
func (db *DB) CreateTable(ss ...Schema) error {
	if db.opts.Follower {
		return ErrReadOnly
	}
	for i := range ss {
		if err := ss[i].Check(); err != nil {
			return err
		}
	}
	batch, err := db.createTablesLocked(ss)
	if err != nil || batch == nil {
		return err
	}
	// The records went out in order, so the batch of the last is durable
	// only once every earlier one is.
	if err := db.awaitCommit(batch); err != nil {
		return err
	}
	db.maybeCompact()
	return nil
}

// createTablesLocked is CreateTable's critical section: it checks every
// schema, then creates and enqueues the new tables. The returned batch is
// nil when there is nothing to wait for (no new table, or no WAL).
func (db *DB) createTablesLocked(ss []Schema) (*walBatch, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range ss {
		if t := db.tables[s.Name]; t != nil && !schemaEqual(t.schema, s) {
			return nil, fmt.Errorf("%w (table %q exists with another schema)", ErrLegacyFormat, s.Name)
		}
	}
	var batch *walBatch
	for _, s := range ss {
		if db.tables[s.Name] != nil {
			continue
		}
		if db.dir != "" {
			payload, err := json.Marshal(schemaRecord{CreateTable: &s})
			if err != nil {
				return nil, fmt.Errorf("relstore: marshal wal record: %w", err)
			}
			batch = db.enqueueCommit(payload)
		}
		db.tables[s.Name] = newTable(s)
	}
	db.publishCounts()
	return batch, nil
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
		keys:   newPostingList("", ""),
		codec:  newRowCodec(s),
	}
	t.initIndexes()
	return t
}

// initIndexes builds empty secondary-index containers for the schema.
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

// addToIndexes registers a row in the table's secondary indexes.
func (t *table) addToIndexes(id string, r Row) {
	for col, idx := range t.indexes {
		if v, ok := r[col].(string); ok {
			indexAdd(idx, col, v, id)
		}
	}
}

// indexAdd files id under value v of column col's secondary index.
func indexAdd(idx map[string]*postingList, col, v, id string) {
	pl := idx[v]
	if pl == nil {
		pl = newPostingList(col, v)
		idx[v] = pl
	}
	pl.add(id)
}

// applyPut installs a typed row, maintaining the key list and secondary
// indexes. It and reindex keep postingList's invariant: a list is told of
// a row that takes or leaves its value, and of no other, and the rows
// hold the new row before any list is told it left.
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
// column's posting lists; every unchanged column costs one comparison.
func (t *table) reindex(id string, old, new Row) {
	for col, idx := range t.indexes {
		ov, ook := old[col].(string)
		nv, nok := new[col].(string)
		if ook && nok && ov == nv {
			continue
		}
		if ook {
			if pl := idx[ov]; pl != nil {
				pl.remove(t.rows, id)
				if pl.len() == 0 {
					delete(idx, ov)
				}
			}
		}
		if nok {
			indexAdd(idx, col, nv, id)
		}
	}
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
// and, for durable stores, encodes the WAL record's payload from the
// same rows and enqueues it. The caller holds db.mu exclusively — the
// enqueue happens before it is released so that WAL order is apply
// order. Rows are encoded in a first pass, before any in-memory
// mutation: an encode failure (unreachable for rows that passed
// validation, but never silently absorbed) rolls back clean. The
// returned batch — nil for memory stores and empty transactions — must
// be awaited after db.mu is released.
func (db *DB) commitApply(tx *Tx) (*walBatch, error) {
	if len(tx.pendingOrder) == 0 && len(tx.seqs) == 0 {
		return nil, nil
	}
	durable := db.dir != ""
	var payload []byte
	if durable {
		payload = appendOpsHeader(make([]byte, 0, 512), len(tx.pendingOrder)+len(tx.seqs))
		for _, pk := range tx.pendingOrder {
			var err error
			payload, err = appendPut(payload, pk.table, pk.id, &db.tables[pk.table].codec, tx.pending[pk])
			if err != nil {
				return nil, err
			}
		}
	}
	for _, pk := range tx.pendingOrder {
		// The pending row was cloned on Put and the tx is recycled with
		// this commit, so ownership transfers without another copy.
		db.tables[pk.table].applyPut(pk.id, tx.pending[pk])
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
			payload = appendSeq(payload, tbl, n)
		}
	}
	db.publishCounts()
	if !durable {
		return nil, nil
	}
	return db.enqueueCommit(payload), nil
}

// enqueueCommit appends a record's payload to the currently accumulating
// batch. Callers hold db.mu exclusively, so batch order equals apply
// order.
func (db *DB) enqueueCommit(payload []byte) *walBatch {
	g := &db.group
	g.mu.Lock()
	if g.cur == nil {
		g.cur = &walBatch{done: make(chan struct{})}
	}
	b := g.cur
	b.payloads = append(b.payloads, payload)
	g.last = b.done
	g.mu.Unlock()
	return b
}

// awaitCommit blocks until b is durable. Batches are written one at a
// time, in enqueue order, each by one of its own committers, its leader:
// a committer that finds no batch being written detaches b and writes
// it; one that finds a batch being written becomes b's heir, unless b
// has one, and is woken to lead b when that write ends. Every other
// committer waits on b.done. So a commit waits out at most the write
// ahead of its own, never the batches queued behind it. Called without
// db.mu.
func (db *DB) awaitCommit(b *walBatch) error {
	g := &db.group
	g.mu.Lock()
	switch {
	case g.cur != b || g.heir:
		// b is written or being written, or its heir will write it.
		g.mu.Unlock()
	case !g.writing:
		g.cur, g.writing = nil, true
		g.mu.Unlock()
		db.leadBatch(b)
	default:
		// Until we take it, b stays cur: it keeps accumulating, and any
		// other committer of it finds the heir and waits on b.done.
		g.heir = true
		for g.writing {
			g.lead.Wait()
		}
		g.cur, g.writing, g.heir = nil, true, false
		g.mu.Unlock()
		db.leadBatch(b)
	}
	<-b.done
	return b.err
}

// leadBatch writes b, detached from the group by its caller, wakes its
// committers, then wakes the heir of the batch that accumulated
// meanwhile: one goroutine per batch. Without an heir the next committer
// to arrive leads.
func (db *DB) leadBatch(b *walBatch) {
	b.err = db.writeBatch(b.payloads)
	close(b.done)
	g := &db.group
	g.mu.Lock()
	g.writing = false
	if g.heir {
		g.lead.Signal()
	}
	g.mu.Unlock()
}

// writeBatch appends a batch of records to the active WAL segment with a
// single flush (and fsync, in SyncEveryCommit mode) at the end, then
// rotates the segment if it has grown past the threshold. Rotation is a
// close+open — no snapshotting happens on the commit path.
func (db *DB) writeBatch(payloads [][]byte) error {
	// start stays zero for unsampled batches: the latency summary is
	// sampled 1-in-8 so the common case pays no clock reads at all.
	var start time.Time
	if db.met != nil && db.met.sampleLatency() {
		start = time.Now()
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if err := db.walUsableLocked(); err != nil {
		return err
	}
	for _, p := range payloads {
		if err := db.wal.appendPayload(p); err != nil {
			return db.poisonLocked(err)
		}
	}
	if err := db.wal.commit(); err != nil {
		return db.poisonLocked(err)
	}
	if db.met != nil {
		db.met.commitObserved(len(payloads), start, db.opts.Sync == SyncEveryCommit)
	}
	db.commitCount.Add(int64(len(payloads)))
	db.publishWALLocked()
	if db.wal.size >= db.opts.SegmentBytes {
		// The batch is already durable, so a rotation failure poisons
		// the store (no writer to append to any more) but still
		// acknowledges this commit.
		db.rotateLocked()
	}
	return nil
}

// errClosed is the error of every WAL operation on a closed store.
var errClosed = errors.New("relstore: store is closed")

// walUsableLocked reports why the WAL cannot take bytes, nil when it can:
// the store is closed; a previous WAL write failed, so the in-memory state
// may hold a transaction whose Update returned an error, and logging or
// snapshotting past it would make that failed commit durable; or a
// follower is mid re-bootstrap, with no active segment. Caller holds
// walMu.
func (db *DB) walUsableLocked() error {
	switch {
	case db.closed:
		return errClosed
	case db.walErr != nil:
		return fmt.Errorf("relstore: store failed a previous WAL write: %w", db.walErr)
	case db.wal == nil:
		return errors.New("relstore: store is re-initialising")
	}
	return nil
}

// poisonLocked records a sticky WAL failure, wrapped in ErrWALFailed, and
// returns it. Caller holds walMu.
func (db *DB) poisonLocked(err error) error {
	if db.walErr == nil {
		db.walErr = fmt.Errorf("%w: %w", ErrWALFailed, err)
	}
	db.publishWALLocked()
	return db.walErr
}

// publishWALLocked installs a walState read from the fields walMu guards
// and then closes the previous state's notify channel, waking everyone
// waiting on WAL progress (replication ship handlers,
// WaitFollowerApplied): a woken waiter loads the new state. Caller holds
// walMu, or owns the DB outright (Open, OpenMemory).
func (db *DB) publishWALLocked() {
	s := &walState{
		gen:     db.gen,
		seq:     db.walSeq,
		applied: db.applied,
		usable:  db.walUsableLocked(),
		walErr:  db.walErr,
		notify:  make(chan struct{}),
	}
	if db.wal != nil {
		s.size = db.wal.size
	}
	if old := db.walView.Swap(s); old != nil {
		close(old.notify)
	}
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
	db.publishWALLocked()
	return nil
}

// maybeCompact starts a background compaction cycle once enough commits
// have accumulated. It never blocks the caller: the check is a lock-free
// counter read and the cycle itself runs in its own goroutine (one at a
// time). Must be called without holding db.mu.
func (db *DB) maybeCompact() {
	if db.dir == "" || db.opts.CompactEvery <= 0 {
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
	if db.dir == "" {
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
// boundary+1 —, the segment is sealed, the tables are cloned. Batches are
// written in enqueue order, so the first of the three is one wait on the
// last enqueued batch; a follower enqueues nothing and never waits.
//
// Lock order: snapMu (the caller's), then db.mu shared, then walMu. This
// is the one place walMu is taken, and file IO done (a segment close and
// open), with db.mu held; nothing takes db.mu with walMu held, and the
// group leader that writes the awaited batch needs only group.mu and
// walMu, so the wait cannot block on this goroutine. Writers stall for at
// most one group commit, the rotation and the clone, once per cycle; the
// clone copies one pointer per stored row, so that part grows with the
// store.
func (db *DB) sealAndClone() (clones []tableClone, boundary int64, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.group.mu.Lock()
	last := db.group.last
	db.group.mu.Unlock()
	if last != nil {
		<-last
	}

	db.walMu.Lock()
	if err := db.walUsableLocked(); err != nil {
		db.walMu.Unlock()
		return nil, 0, err
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
	return cloneTables(db.tables), boundary, nil
}

// compactCycle is one snapshot+delete round:
//
//  1. Cut (sealAndClone): with the store locked shared, wait out the
//     commits still on their way to disk, rotate so every record so far
//     lives in a sealed segment — the boundary is the sealed segment with
//     the highest number — and cut each table's rows into a slice in key
//     order (cloneTables). The clone is exactly the contents of segments
//     <= boundary.
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
	if err := writeFileSync(tmp, func(w io.Writer) error { return writeSnapshot(w, clones, boundary) }); err != nil {
		return err
	}

	// Abort on close: Close may release the cross-process lock the moment
	// we return, and a snapshot rename racing a new owner of the directory
	// could orphan that owner's segments. A poisoned store refuses to
	// compact whatever the clone holds.
	db.walMu.Lock()
	err = db.walUsableLocked()
	db.walMu.Unlock()
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := installFile(tmp, db.snapshotPath()); err != nil {
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
	// ahead of what reads observe: see ReadPosition.)
	Follower     bool  `json:"follower,omitempty"`
	AppliedBytes int64 `json:"appliedBytes,omitempty"`
	// Compactions counts completed snapshot+delete cycles since open;
	// LastCompactErr carries the most recent background cycle failure
	// ("" when the last cycle succeeded).
	Compactions    int64  `json:"compactions"`
	LastCompactErr string `json:"lastCompactErr,omitempty"`
	// WALError is the sticky WAL failure refusing every later write (""
	// while the WAL is healthy); a follower's clears on FollowerReinit.
	WALError string `json:"walError,omitempty"`
}

// RowCount reports the rows resident across all tables. It reads the
// mirror publishCounts maintains and takes no lock, so it can run at any
// frequency — it is what the chronos_store_rows gauge scrapes.
func (db *DB) RowCount() int64 { return db.rowTotal.Load() }

// Stats returns current store statistics. Table and row counts come from
// the mirrors publishCounts maintains and the WAL fields from the
// published walState, so Stats takes no store lock and no WAL lock: it
// queues neither behind a transaction nor behind a commit's fsync.
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
		ws := db.walView.Load()
		st.WALSeq = ws.seq
		if ws.walErr != nil {
			st.WALError = ws.walErr.Error()
		}
		if db.opts.Follower {
			st.Follower = true
			st.AppliedBytes = ws.size
		}
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

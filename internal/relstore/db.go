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

// table is the in-memory state of one table.
type table struct {
	// mu guards every field below. Readers share it, the commit apply
	// phase and schema upgrades hold it exclusively. Per-table locks are
	// what lets transactions on disjoint tables proceed on different
	// cores; the multi-lock protocol (canonical sorted-name acquisition
	// order) lives in tx.go. A *table pointer is stable for the lifetime
	// of the DB — upgrades mutate the table in place, tables are never
	// dropped — so holding t.mu is always sufficient to touch t.
	mu     sync.RWMutex
	schema Schema
	rows   map[string]Row // key -> row
	// keys lists the primary keys in sorted order so full scans iterate
	// without sorting per query.
	keys *postingList
	// indexes holds one sorted posting list per (column, value) pair.
	indexes map[string]map[string]*postingList
	// ordered holds one ordered (range-capable) index per Ordered column.
	ordered map[string]*orderedIndex
	seq     int64 // auto-increment sequence
	// codec is the binary row codec for the current schema, rebuilt on
	// upgrade. Commits encode rows through it under this table's write
	// lock, so the bytes a WAL frame ships can never race an upgrade.
	codec rowCodec
	// rowCount mirrors len(rows). It is written under the table's write
	// lock (applyPut/applyDelete are the only mutators of rows) but read
	// lock-free, so Stats and the rows gauge never queue behind a commit
	// apply.
	rowCount atomic.Int64
}

// DB is an embedded, durable, transactional table store. All methods are
// safe for concurrent use.
//
// Locking rules (the full hierarchy is documented in the package doc):
//   - db.tablesMu guards only the tables map — which *table pointers
//     exist. It is read-locked for the instant of a name lookup and
//     write-locked only to register a new table or to swap the whole
//     table set (follower re-initialisation). An exclusive holder never
//     acquires a table lock, so lookups stay O(1) waits.
//   - Each table carries its own RWMutex guarding its rows and indexes.
//     Transactions lock only the tables they touch; multi-table
//     acquisition follows a canonical sorted-name order (see tx.go), so
//     writers on disjoint tables run on different cores and the lock
//     graph is cycle-free.
//   - db.walMu serialises WAL segment writes, rotation and close. The
//     condition variable walCond (on walMu) publishes durable-LSN
//     progress to the background compactor.
//   - db.snapMu serialises compaction cycles (background and manual).
//   - group.mu only orders commit batches; it is held for O(1) sections.
//
// A committing Update applies its writes under the written tables' locks,
// then releases them and waits for the group committer to make the batch
// durable (one WAL write + fsync may cover many concurrent commits).
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

	tablesMu sync.RWMutex // guards the tables map (not table contents)
	tables   map[string]*table

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
	// walMu, published via walCond. The compactor refuses to make a
	// snapshot durable before every commit it contains reaches the log,
	// so a failed (unacknowledged) WAL write can never leak into
	// durable state through a snapshot.
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
// WAL and ordered with commits that use the new table: a brand-new table
// is registered (and its record enqueued) under the exclusive tables-map
// lock, an upgrade rebuilds in place (and enqueues) under the table's own
// write lock, so in both cases any commit touching the table must order
// its WAL record after this one.
func (db *DB) CreateTable(s Schema) error {
	if db.opts.Follower {
		return ErrReadOnly
	}
	if err := s.Check(); err != nil {
		return err
	}
	var batch *walBatch
	for {
		db.tablesMu.RLock()
		existing := db.tables[s.Name]
		db.tablesMu.RUnlock()
		if existing == nil {
			db.tablesMu.Lock()
			if _, raced := db.tables[s.Name]; raced {
				// Lost a creation race; retry as a no-op/upgrade check.
				db.tablesMu.Unlock()
				continue
			}
			db.tables[s.Name] = newTable(s)
			if db.durable {
				batch = db.enqueueCommit(walRecord{CreateTable: &s})
			}
			db.tablesMu.Unlock()
			break
		}
		existing.mu.Lock()
		if schemaEqual(existing.schema, s) {
			existing.mu.Unlock()
			return nil
		}
		if !schemaUpgradable(existing.schema, s) {
			existing.mu.Unlock()
			return fmt.Errorf("relstore: table %q already exists with an incompatible schema", s.Name)
		}
		existing.upgradeLocked(s)
		if db.durable {
			batch = db.enqueueCommit(walRecord{CreateTable: &s})
		}
		existing.mu.Unlock()
		break
	}

	if batch != nil {
		if err := db.awaitCommit(batch); err != nil {
			return err
		}
	}
	db.maybeCompact()
	return nil
}

// Tables returns the names of all tables, sorted. It touches only the
// tables-map lock, never a table's own lock, so it cannot queue behind a
// running commit apply.
func (db *DB) Tables() []string {
	db.tablesMu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.tablesMu.RUnlock()
	sort.Strings(names)
	return names
}

// ErrUnknownTable is wrapped by every operation that names a table the
// store does not have. Callers racing table creation — a follower's
// readers before the CreateTable record ships, say — test with
// errors.Is and retry.
var ErrUnknownTable = errors.New("relstore: unknown table")

// lookupTable resolves a table name to its stable *table pointer. The
// tables-map lock is held only for the map read; the caller locks the
// table itself as its access requires.
func (db *DB) lookupTable(name string) (*table, error) {
	db.tablesMu.RLock()
	t := db.tables[name]
	db.tablesMu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownTable, name)
	}
	return t, nil
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
// schema. Caller holds the write lock (or owns the table exclusively).
func (t *table) initIndexes() {
	t.indexes = make(map[string]map[string]*postingList)
	t.ordered = make(map[string]*orderedIndex)
	for _, c := range t.schema.Columns {
		if c.Name == t.schema.Key {
			continue
		}
		if c.Indexed {
			t.indexes[c.Name] = make(map[string]*postingList)
		}
		if c.Ordered {
			t.ordered[c.Name] = newOrderedIndex()
		}
	}
}

// upgradeLocked rebuilds the table in place under a compatible
// replacement schema: the rows (and key list) carry over untouched, the
// secondary indexes are rebuilt from scratch so added Indexed/Ordered
// flags take effect. Iterating ids in key order keeps every per-value
// posting-list insert an append, so the rebuild is linear in the table
// size. The rebuild mutates the table rather than replacing it because
// *table pointers must stay stable: concurrent transactions hold them
// through the per-table locks, and a swapped-out copy sharing the row
// maps would put the same data under two different mutexes. Caller holds
// the table's write lock.
func (t *table) upgradeLocked(s Schema) {
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
	for col, oi := range t.ordered {
		v, ok := r[col]
		if !ok {
			continue
		}
		c, _ := t.schema.column(col)
		oi.add(ordKey(c.Type, v), id)
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
	for col, oi := range t.ordered {
		v, ok := r[col]
		if !ok {
			continue
		}
		c, _ := t.schema.column(col)
		oi.remove(ordKey(c.Type, v), id)
	}
}

// applyPut installs a typed row, maintaining the key list and secondary
// indexes. Caller holds the write lock.
func (t *table) applyPut(id string, row Row) {
	if old, ok := t.rows[id]; ok {
		t.rows[id] = row
		t.reindex(id, old, row)
		return
	}
	t.keys.add(id)
	t.rows[id] = row
	t.rowCount.Add(1)
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
	for col, oi := range t.ordered {
		ov, ook := old[col]
		nv, nok := new[col]
		if ook && nok && valueEqual(ov, nv) {
			continue
		}
		c, _ := t.schema.column(col)
		if ook {
			oi.remove(ordKey(c.Type, ov), id)
		}
		if nok {
			oi.add(ordKey(c.Type, nv), id)
		}
	}
}

// applyDelete removes a row. Missing rows are a no-op (idempotent WAL
// replay). Caller holds the write lock.
func (t *table) applyDelete(id string) {
	if old, ok := t.rows[id]; ok {
		t.removeFromIndexes(id, old)
		delete(t.rows, id)
		t.rowCount.Add(-1)
		t.keys.remove(id)
	}
}

// apply installs a committed WAL operation into the in-memory state,
// used on replay and follower apply. The caller holds the write lock.
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
// The transaction write-locks each table on first touch (reads included)
// and holds the locks through the commit apply, so Update callbacks are
// fully serialisable with respect to every table they touch — two
// transactions conflict only when their table sets overlap, and
// transactions on disjoint tables run in parallel. To keep the lock
// graph acyclic the transaction may need to restart: when it touches a
// table that sorts before one it already holds and that table is
// contended, every lock is dropped and fn runs again with the full set
// pre-acquired in sorted order. fn must therefore be safe to re-run —
// buffer all effects in the Tx (or in variables reset at the top of fn)
// and keep side effects out, the same contract as any retrying
// transaction closure.
func (db *DB) Update(fn func(tx *Tx) error) error {
	if db.opts.Follower {
		return ErrReadOnly
	}
	var needed map[string]bool
	for restarts := 0; ; restarts++ {
		if restarts > maxTxRestarts {
			return fmt.Errorf("relstore: transaction restarted %d times without converging on a lock set", restarts)
		}
		batch, retry, err := db.updateAttempt(fn, &needed)
		if retry {
			continue
		}
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
}

// maxTxRestarts bounds the Update restart loop. Each restart adds at
// least one table to the pre-acquired set, so a transaction can restart
// at most once per table it touches; this cap only guards against a
// pathological fn that touches fresh tables without bound.
const maxTxRestarts = 1000

// txPool recycles Tx handles (and, through them, their bookkeeping maps
// and slices) so the steady-state commit path allocates no per-
// transaction machinery. A Tx goes back only on clean completion — see
// putTx and the restart caveat in updateAttempt.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// takeTx returns a scrubbed transaction handle bound to db.
func takeTx(db *DB, writable bool) *Tx {
	tx := txPool.Get().(*Tx)
	tx.db = db
	tx.writable = writable
	return tx
}

// putTx scrubs tx and returns it to the pool. The caller must already
// have released the transaction's locks.
// txPoolMaxEntries bounds the capacity a pooled Tx may carry back into
// the pool. clear() zeroes a map's whole bucket array, whose size is the
// map's high-water mark, not its current length — so recycling the maps
// of one bulk transaction (a 10k-row evaluation insert, a snapshot
// restore) would tax every later small transaction with an O(bulk)
// memclr. Oversized containers are dropped instead.
const txPoolMaxEntries = 128

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
	if len(tx.needed) > txPoolMaxEntries {
		tx.needed = nil
	} else {
		clear(tx.needed)
	}
	// held/heldOrder/heldMax/scanTable/scanName were reset by releaseLocks.
	// declared must not survive: beginRead treats any non-nil declared map
	// as ViewTables mode, which would refuse all operations of a later
	// plain View reusing this handle.
	tx.declared = nil
	tx.restart = false
	tx.db = nil
	tx.writable = false
	txPool.Put(tx)
}

// updateAttempt runs one iteration of the Update restart loop: acquire
// the lock set learned so far, run fn, apply and enqueue on success.
// The locks are released before returning (releaseLocks is idempotent
// and deferred so a panicking fn cannot strand a table lock).
func (db *DB) updateAttempt(fn func(tx *Tx) error, needed *map[string]bool) (batch *walBatch, retry bool, err error) {
	tx := takeTx(db, true)
	if *needed != nil {
		tx.needed = *needed // lock set learned by earlier attempts
	}
	recycle := false
	defer func() {
		tx.releaseLocks()
		if recycle {
			putTx(tx)
		}
	}()
	if err := tx.prelock(); err != nil {
		recycle = true
		return nil, false, err
	}
	err = fn(tx)
	if tx.restart {
		// A contended out-of-order acquisition voided this attempt; fn's
		// error (if any) is from operating on the voided transaction. The
		// accumulated lock set is handed to the next attempt, so this Tx
		// must NOT be recycled — putTx would clear the map out from under
		// the retry.
		*needed = tx.needed
		return nil, true, nil
	}
	// From here the attempt is final (commit or rollback); the handle can
	// be recycled. A panicking fn skips this, leaving the Tx to the GC —
	// a recovered caller may still hold a reference to it.
	recycle = true
	if err != nil {
		return nil, false, err
	}
	batch, err = db.commitApply(tx)
	return batch, false, err
}

// View runs fn inside a read-only transaction. Each operation takes only
// its target table's read lock for the duration of that operation, so
// reads never queue behind writers of unrelated tables. Every single
// operation observes a consistent committed state of its table — a
// multi-table commit becomes visible in one step because the committer
// holds all its write locks through the apply — but two successive
// operations may observe different commits (read-committed). Callers
// that need one consistent cut across several tables (or across several
// reads of one table) use ViewTables.
func (db *DB) View(fn func(tx *Tx) error) error {
	tx := takeTx(db, false)
	recycle := false
	defer func() {
		tx.releaseLocks()
		if recycle { // a panicking fn leaves the handle to the GC
			putTx(tx)
		}
	}()
	err := fn(tx)
	recycle = true
	return err
}

// ViewTables runs fn inside a read-only transaction that holds the read
// locks of all the named tables for fn's whole duration, acquired in
// sorted-name order (the same canonical order writers use, so the lock
// graph stays acyclic). Every operation on a declared table observes the
// same consistent cut: a commit spanning several of the tables is either
// fully visible or not at all. Operations on undeclared tables fail.
func (db *DB) ViewTables(fn func(tx *Tx) error, tables ...string) error {
	tx := takeTx(db, false)
	tx.declared = make(map[string]*table, len(tables))
	recycle := false
	defer func() {
		tx.releaseLocks()
		if recycle {
			putTx(tx)
		}
	}()
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	// Resolve every pointer under one tables-map read lock, so the set
	// comes from a single store generation: a follower re-initialisation
	// swaps the whole map, and per-name lookups could otherwise mix
	// tables from before and after the swap into one "snapshot".
	db.tablesMu.RLock()
	for i, name := range sorted {
		if i > 0 && name == sorted[i-1] {
			continue
		}
		t := db.tables[name]
		if t == nil {
			db.tablesMu.RUnlock()
			recycle = true
			return fmt.Errorf("%w %q", ErrUnknownTable, name)
		}
		tx.declared[name] = t
	}
	db.tablesMu.RUnlock()
	for i, name := range sorted {
		if i > 0 && name == sorted[i-1] {
			continue
		}
		t := tx.declared[name]
		t.mu.RLock()
		tx.heldOrder = append(tx.heldOrder, t)
	}
	err := fn(tx)
	recycle = true
	return err
}

// commitApply applies the transaction's buffered writes to the in-memory
// tables directly from their typed form (no encode/decode round-trip)
// and, for durable stores, enqueues the WAL record. The caller (Update)
// still holds the write lock of every table the transaction touched —
// the enqueue must happen before those locks are released so that WAL
// order agrees with apply order on every table two transactions share,
// and so each put's binary row bytes are fixed before any later schema
// upgrade on its table. Rows are encoded in a first pass, before any
// in-memory mutation: an encode failure (unreachable for rows that
// passed validation, but never silently absorbed) rolls back clean.
// The returned batch — nil for memory stores and empty transactions —
// must be awaited after the locks are released.
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
			t := tx.held[pk.table] // write-locked since the tx first touched it
			if row == nil {
				rec.Ops = append(rec.Ops, walOp{Op: opDelete, Table: pk.table, ID: pk.id})
				continue
			}
			start := len(encBuf)
			var err error
			encBuf, err = t.codec.appendRow(encBuf, row)
			if err != nil {
				return nil, err
			}
			rec.Ops = append(rec.Ops, walOp{Op: opPut, Table: pk.table, ID: pk.id, rowBin: encBuf[start:len(encBuf):len(encBuf)]})
		}
	}
	for _, pk := range tx.pendingOrder {
		row := tx.pending[pk]
		t := tx.held[pk.table]
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
		if t := tx.held[tbl]; t != nil && n > t.seq {
			t.seq = n
		}
		if durable {
			rec.Ops = append(rec.Ops, walOp{Op: opSeq, Table: tbl, Seq: n})
		}
	}
	if !durable || len(rec.Ops) == 0 {
		return nil, nil
	}
	return db.enqueueCommit(rec), nil
}

// enqueueCommit appends rec to the currently accumulating batch. Callers
// hold the write locks of every table rec touches (or the exclusive
// tables-map lock, for new-table records), so for any two records that
// share a table, batch order equals apply order — and records on
// disjoint tables commute under replay, so their relative order is free.
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

// compactCycle is one snapshot+delete round:
//
//  1. Rotate so every record so far lives in a sealed segment; the
//     boundary is the sealed segment with the highest number. (Brief
//     walMu hold — a file close+open.)
//  2. Clone the table maps under a brief read lock, then encode and
//     marshal the snapshot outside all locks. Commits proceed in
//     parallel; replaying their segments over the snapshot is idempotent.
//  3. Wait until every commit the clone contains is durably logged. If a
//     WAL write fails in that window the cycle aborts: renaming the
//     snapshot would otherwise make a failed, unacknowledged commit
//     durable (and deleting segments would orphan acknowledged ones).
//  4. Fsync + rename the snapshot (the commit point), then delete the
//     sealed segments it covers.
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

	db.walMu.Lock()
	if db.closed {
		db.walMu.Unlock()
		return fmt.Errorf("relstore: store is closed")
	}
	if db.walErr != nil {
		err := db.walErr
		db.walMu.Unlock()
		// The in-memory state may contain a transaction whose Update
		// returned an error. Snapshotting it (and deleting segments)
		// would silently make that failed commit durable, so a poisoned
		// store refuses to compact.
		return fmt.Errorf("relstore: store failed a previous WAL write: %w", err)
	}
	if !db.opts.Follower && db.wal.size > 0 {
		// Followers never rotate: their segment numbering mirrors the
		// leader's, so local compaction covers only the segments the
		// leader has already sealed.
		if err := db.rotateLocked(); err != nil {
			db.walMu.Unlock()
			return err
		}
	}
	boundary := db.walSeq - 1
	db.walMu.Unlock()

	if boundary <= db.snapSeq.Load() {
		return nil // nothing sealed since the last snapshot
	}

	// Stream the snapshot into the temp file right away — encoding
	// overlaps the durability wait below, and memory stays O(one encoded
	// row) instead of the whole marshalled store. The rename (the commit
	// point) still happens only after every cloned commit is durably
	// logged.
	clones, cloneLSN := db.cloneState()
	tmp := db.snapshotPath() + ".tmp"
	if err := writeSnapshotTmp(tmp, clones, boundary); err != nil {
		os.Remove(tmp)
		return err
	}

	db.walMu.Lock()
	for db.walErr == nil && !db.closed && db.durLSN < cloneLSN {
		db.walCond.Wait()
	}
	// Abort on close even when the clone is already durable: Close may
	// release the cross-process lock the moment we return, and a
	// snapshot rename racing a new owner of the directory could orphan
	// that owner's segments.
	ok := db.walErr == nil && !db.closed && db.durLSN >= cloneLSN
	werr := db.walErr
	db.walMu.Unlock()
	if !ok {
		os.Remove(tmp)
		if werr != nil {
			return fmt.Errorf("relstore: store failed a previous WAL write: %w", werr)
		}
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
// per-table atomic counters maintained at commit apply, so it never
// takes a table lock and can run at any frequency — it is what the
// chronos_store_rows gauge scrapes.
func (db *DB) RowCount() int64 {
	db.tablesMu.RLock()
	defer db.tablesMu.RUnlock()
	var n int64
	for _, t := range db.tables {
		n += t.rowCount.Load()
	}
	return n
}

// Stats returns current store statistics. Row counts come from the
// per-table atomic counters maintained at commit apply, so Stats never
// takes a table lock and cannot contend with commits at all — a scrape
// or UI poll is invisible to writers.
func (db *DB) Stats() Stats {
	db.tablesMu.RLock()
	tabs := make([]*table, 0, len(db.tables))
	for _, t := range db.tables {
		tabs = append(tabs, t)
	}
	db.tablesMu.RUnlock()
	st := Stats{Tables: len(tabs)}
	for _, t := range tabs {
		st.Rows += int(t.rowCount.Load())
	}
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

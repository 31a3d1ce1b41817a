package relstore

import (
	"bytes"
	"fmt"
	"slices"
)

// ErrNotFound is returned by Get when no row has the requested key.
var ErrNotFound = fmt.Errorf("relstore: row not found")

// Tx is a transaction handle passed to DB.Update and DB.View callbacks.
// Read operations observe the committed state plus the transaction's own
// buffered writes (read-your-writes). Rows go in and come out as stored:
// Get, Select and SelectFunc hand out the store's row, and Put keeps the
// map it is handed (see "Committed values are immutable" in the package
// doc). Tx must not escape the callback:
// its operations take no lock of their own, they run under the store lock
// Update or View holds around the callback.
//
// Tx values are pooled (takeTx/putTx): every map and slice below is
// cleared, not dropped, between transactions, so the steady-state write
// path allocates no bookkeeping.
type Tx struct {
	db       *DB
	writable bool
	// pending maps (table, id) -> buffered put, in insertion order via
	// pendingOrder for deterministic WAL layout.
	pending      map[pendingKey]Row
	pendingOrder []pendingKey
	// seqs buffers sequence advances.
	seqs map[string]int64
}

type pendingKey struct {
	table, id string
}

// table resolves a table name.
func (tx *Tx) table(name string) (*table, error) {
	t := tx.db.tables[name]
	if t == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// Get returns the row with the given key as the store holds it (the
// transaction's pending row, if it wrote one), or ErrNotFound. The row
// is read-only and may be kept beyond the transaction: committed rows are
// immutable, an update replaces the map entry and never edits the old
// Row. A caller that writes the row back copies it (maps.Clone) or builds
// a fresh one, and may carry the old values into it.
func (tx *Tx) Get(tableName, id string) (Row, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return nil, err
	}
	row := tx.effectiveRow(t, tableName, id)
	if row == nil {
		return nil, ErrNotFound
	}
	return row, nil
}

// Put inserts or replaces a row (upsert). The row must carry the key
// column and validate against the schema. The store keeps the map it is
// handed as the committed row: the caller must not write to it, or to
// its []byte values, after the call.
func (tx *Tx) Put(tableName string, row Row) error {
	if !tx.writable {
		return fmt.Errorf("relstore: Put in read-only transaction")
	}
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if err := t.schema.validate(row); err != nil {
		return err
	}
	id := row[t.schema.Key].(string)
	tx.buffer(tableName, id, row)
	return nil
}

// buffer records a pending put, replacing any earlier put of the same
// row within this transaction.
func (tx *Tx) buffer(table, id string, row Row) {
	if tx.pending == nil {
		tx.pending = make(map[pendingKey]Row, 8)
	}
	k := pendingKey{table, id}
	if _, seen := tx.pending[k]; !seen {
		tx.pendingOrder = append(tx.pendingOrder, k)
	}
	tx.pending[k] = row
}

// NextSeq reserves and returns the next value of the table's
// auto-increment sequence. The advance commits atomically with the rest
// of the transaction.
func (tx *Tx) NextSeq(tableName string) (int64, error) {
	if !tx.writable {
		return 0, fmt.Errorf("relstore: NextSeq in read-only transaction")
	}
	t, err := tx.table(tableName)
	if err != nil {
		return 0, err
	}
	cur, ok := tx.seqs[tableName]
	if !ok {
		cur = t.seq
	}
	cur++
	if tx.seqs == nil {
		tx.seqs = make(map[string]int64, 4)
	}
	tx.seqs[tableName] = cur
	return cur, nil
}

// eqPredicate is one equality condition of a Query.
type eqPredicate struct {
	col string
	val any
}

// Query describes a Select: equality conditions, index-assisted where the
// schema declares indexes, and a row limit.
type Query struct {
	eq    []eqPredicate
	limit int
	// Inline backing for the first two conditions: the status+system
	// point lookups on the scheduler hot path stay within the Query's own
	// allocation.
	eq0 [2]eqPredicate
}

// NewQuery returns an empty query matching all rows.
func NewQuery() *Query { return &Query{} }

// Eq adds an equality condition; indexed columns use the secondary index.
func (q *Query) Eq(col string, val any) *Query {
	if q.eq == nil {
		q.eq = q.eq0[:0]
	}
	q.eq = append(q.eq, eqPredicate{col, val})
	return q
}

// Limit caps the number of returned rows (0 = unlimited).
func (q *Query) Limit(n int) *Query {
	q.limit = n
	return q
}

// Select returns the stored rows matching the query, ordered by key for
// determinism: the rows SelectFunc streams, read-only like Get's. With
// Limit set, the scan stops as soon as the limit is reached instead of
// materialising the full candidate set.
func (tx *Tx) Select(tableName string, q *Query) ([]Row, error) {
	var out []Row
	err := tx.scan(tableName, q, func(row Row) bool {
		out = append(out, row)
		return true
	})
	return out, err
}

// SelectFunc streams matching rows to fn in key order, stopping early
// when fn returns false. fn receives the stored row (or the
// transaction's pending row), read-only like Get's, and may keep it
// beyond the transaction.
func (tx *Tx) SelectFunc(tableName string, q *Query, fn func(Row) bool) error {
	return tx.scan(tableName, q, fn)
}

// Count returns the number of rows matching the query without
// materialising them.
func (tx *Tx) Count(tableName string, q *Query) (int, error) {
	n := 0
	err := tx.scan(tableName, q, func(Row) bool { n++; return true })
	return n, err
}

// scan is the query planner and executor behind Select, SelectFunc and
// Count. Committed rows come from the access path chosen by plan (the
// smallest matching posting list, or the primary-key list), each looked
// up once, and every equality is then checked against the row; pending
// writes are merged in by id so uncommitted rows and overwrites are
// both visible.
// Both sources are sorted, so rows stream in key order and the walk
// stops as soon as fn declines or the limit is reached.
//
// fn may issue further operations on tx, on this table or any other.
func (tx *Tx) scan(tableName string, q *Query, fn func(Row) bool) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if q == nil {
		q = NewQuery()
	}
	driver := t.plan(q)

	var pend []string
	if len(tx.pendingOrder) > 0 {
		for _, k := range tx.pendingOrder {
			if k.table == tableName {
				pend = append(pend, k.id)
			}
		}
		slices.Sort(pend)
	}

	matched := 0
	emit := func(row Row) bool {
		if !matchesQuery(row, q) {
			return true
		}
		matched++
		if !fn(row) {
			return false
		}
		return q.limit <= 0 || matched < q.limit
	}

	pi := 0
	for {
		cid, crow, cok := driver.peek()
		pok := pi < len(pend)
		switch {
		case !cok && !pok:
			return nil
		case cok && (!pok || cid < pend[pi]):
			if len(tx.pending) > 0 {
				crow = tx.effectiveRow(t, tableName, cid) // fn may have written it
			}
			if !emit(crow) {
				return nil
			}
			driver.next()
		case pok && (!cok || pend[pi] < cid):
			if !emit(tx.pending[pendingKey{tableName, pend[pi]}]) {
				return nil
			}
			pi++
		default: // same id: the pending write supersedes the committed row
			if !emit(tx.pending[pendingKey{tableName, pend[pi]}]) {
				return nil
			}
			driver.next()
			pi++
		}
	}
}

// plan chooses the committed-row access path for q: the smallest posting
// list of the indexed equality conditions drives the scan. Every equality
// — the other indexed ones and the unindexed ones — is checked against
// the row the driver hands back by matchesQuery, so plan only has to
// narrow the walk, not decide the answer. Without an indexed equality the
// sorted primary-key list drives (full scan). An equality on a value no
// committed row holds yields an empty driver: only pending writes can
// match then. Indexed columns are string columns, so an equality that
// gives one another type yields the empty driver too, and no pending row
// matches it either.
func (t *table) plan(q *Query) *plCursor {
	drive := t.keys
	indexed := false
	for _, eq := range q.eq {
		idx, ok := t.indexes[eq.col]
		if !ok {
			continue
		}
		v, isString := eq.val.(string)
		pl := idx[v]
		if !isString || pl == nil || pl.len() == 0 {
			return &plCursor{}
		}
		if !indexed || pl.len() < drive.len() {
			drive, indexed = pl, true
		}
	}
	return &plCursor{pl: drive, rows: t.rows}
}

// effectiveRow resolves a row id through the transaction's write buffer,
// nil when neither holds it.
func (tx *Tx) effectiveRow(t *table, tableName, id string) Row {
	if p, ok := tx.pending[pendingKey{tableName, id}]; ok {
		return p
	}
	return t.rows[id]
}

// matchesQuery reports whether row satisfies every equality of q.
func matchesQuery(row Row, q *Query) bool {
	for _, eq := range q.eq {
		v, ok := row[eq.col]
		if !ok || !valueEqual(v, eq.val) {
			return false
		}
	}
	return true
}

// valueEqual compares two column values of the supported types.
func valueEqual(a, b any) bool {
	if ab, ok := a.([]byte); ok {
		bb, ok := b.([]byte)
		return ok && bytes.Equal(ab, bb)
	}
	return a == b
}

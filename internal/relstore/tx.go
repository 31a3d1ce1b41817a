package relstore

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
)

// ErrNotFound is returned by Get when no row has the requested key.
var ErrNotFound = fmt.Errorf("relstore: row not found")

// Tx is a transaction handle passed to DB.Update and DB.View callbacks.
// Read operations observe the committed state plus the transaction's own
// buffered writes (read-your-writes). Tx must not escape the callback:
// its operations take no lock of their own, they run under the store lock
// Update or View holds around the callback.
//
// Tx values are pooled (takeTx/putTx): every map and slice below is
// cleared, not dropped, between transactions, so the steady-state write
// path allocates no bookkeeping.
type Tx struct {
	db       *DB
	writable bool
	// pending maps (table, id) -> buffered write, in insertion order via
	// pendingOrder for deterministic WAL layout. A nil Row value marks a
	// tombstone (delete); presence in the map marks a buffered write.
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

// Get returns a copy of the row with the given key, or ErrNotFound.
func (tx *Tx) Get(tableName, id string) (Row, error) {
	if p, ok := tx.pending[pendingKey{tableName, id}]; ok {
		if p == nil {
			return nil, ErrNotFound
		}
		return p.Clone(), nil
	}
	t, err := tx.table(tableName)
	if err != nil {
		return nil, err
	}
	row, ok := t.rows[id]
	if !ok {
		return nil, ErrNotFound
	}
	return row.Clone(), nil
}

// Peek returns the row with the given key as the store holds it, or
// ErrNotFound. Unlike Get it does not clone: the row and its values must
// be treated as read-only, and may be kept beyond the transaction —
// committed rows are immutable, an update replaces the map entry and
// never mutates the old Row. A caller that writes the row back builds a
// fresh one and may carry the old values into it.
func (tx *Tx) Peek(tableName, id string) (Row, error) {
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

// GetValue returns a single column of the row with the given key, or
// ErrNotFound. Unlike Get it does not clone the row, so wide columns the
// caller does not need (entity JSON blobs, say) cost nothing. The
// returned value must be treated as read-only; callers that need a
// mutable copy should use Get. (The value may outlive the transaction:
// committed rows are immutable — an update replaces the map entry, it
// never mutates the old Row.)
func (tx *Tx) GetValue(tableName, id, col string) (any, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return nil, err
	}
	row := tx.effectiveRow(t, tableName, id)
	if row == nil {
		return nil, ErrNotFound
	}
	v, ok := row[col]
	if !ok {
		if _, ok := t.schema.column(col); !ok {
			return nil, fmt.Errorf("relstore: table %q has no column %q", tableName, col)
		}
		return nil, nil // nullable column, absent in this row
	}
	return v, nil
}

// Exists reports whether a row with the given key exists.
func (tx *Tx) Exists(tableName, id string) (bool, error) {
	_, err := tx.Get(tableName, id)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Put inserts or replaces a row (upsert). The row must carry the key
// column and validate against the schema.
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
	tx.buffer(tableName, id, row.Clone())
	return nil
}

// PutOwned is Put without the defensive clone: ownership of row
// transfers to the store, which will keep it as the committed row map.
// The caller must not read or mutate row after the call. For rows built
// locally just to be stored — the pattern of every entity writer in this
// codebase — the clone is pure waste on the hot path; callers holding a
// row they still need must use Put.
func (tx *Tx) PutOwned(tableName string, row Row) error {
	if !tx.writable {
		return fmt.Errorf("relstore: PutOwned in read-only transaction")
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

// Insert adds a new row, failing if the key already exists.
func (tx *Tx) Insert(tableName string, row Row) error {
	if !tx.writable {
		return fmt.Errorf("relstore: Insert in read-only transaction")
	}
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if err := t.schema.validate(row); err != nil {
		return err
	}
	id := row[t.schema.Key].(string)
	exists, err := tx.Exists(tableName, id)
	if err != nil {
		return err
	}
	if exists {
		return fmt.Errorf("relstore: table %q already has row %q", tableName, id)
	}
	tx.buffer(tableName, id, row.Clone())
	return nil
}

// Delete removes the row with the given key. Deleting a missing row
// returns ErrNotFound.
func (tx *Tx) Delete(tableName, id string) error {
	if !tx.writable {
		return fmt.Errorf("relstore: Delete in read-only transaction")
	}
	exists, err := tx.Exists(tableName, id)
	if err != nil {
		return err
	}
	if !exists {
		return ErrNotFound
	}
	tx.buffer(tableName, id, nil)
	return nil
}

// buffer records a pending write (nil row = tombstone), replacing any
// earlier write to the same row within this transaction.
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

// NextID reserves the next value of the table's auto-increment sequence
// and returns it formatted with the given prefix, e.g. NextID("jobs",
// "job") -> "job-17". The advance commits atomically with the rest of the
// transaction.
func (tx *Tx) NextID(tableName, prefix string) (string, error) {
	n, err := tx.NextSeq(tableName)
	if err != nil {
		return "", err
	}
	return prefix + "-" + strconv.FormatInt(n, 10), nil
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

// Predicate filters rows in Select.
type Predicate func(Row) bool

// Eq matches rows whose column equals v. When the column is indexed the
// scan is index-assisted.
type eqPredicate struct {
	col string
	val any
}

// rangeOp enumerates the ordered comparison operators.
type rangeOp int

const (
	opLt rangeOp = iota // column < value
	opLe                // column <= value
	opGt                // column > value
	opGe                // column >= value
)

// rangePred is one ordered comparison condition on a column.
type rangePred struct {
	col string
	val any
	op  rangeOp
}

// Query describes a Select: equality conditions (index-assisted where
// the schema declares indexes), range conditions and arbitrary predicate
// filters.
type Query struct {
	eq      []eqPredicate
	ranges  []rangePred
	filters []Predicate
	limit   int
	// Inline backing for the first two conditions of each kind: the
	// status+system point lookups on the scheduler hot path stay within
	// the Query's own allocation.
	eq0 [2]eqPredicate
	rg0 [2]rangePred
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

// Lt adds the condition col < v. Range conditions are row filters: they
// narrow what a scan returns, never which rows it visits.
func (q *Query) Lt(col string, v any) *Query {
	return q.addRange(rangePred{col, v, opLt})
}

func (q *Query) addRange(r rangePred) *Query {
	if q.ranges == nil {
		q.ranges = q.rg0[:0]
	}
	q.ranges = append(q.ranges, r)
	return q
}

// Le adds the condition col <= v.
func (q *Query) Le(col string, v any) *Query {
	return q.addRange(rangePred{col, v, opLe})
}

// Gt adds the condition col > v.
func (q *Query) Gt(col string, v any) *Query {
	return q.addRange(rangePred{col, v, opGt})
}

// Ge adds the condition col >= v.
func (q *Query) Ge(col string, v any) *Query {
	return q.addRange(rangePred{col, v, opGe})
}

// Where adds an arbitrary predicate.
func (q *Query) Where(p Predicate) *Query {
	q.filters = append(q.filters, p)
	return q
}

// Limit caps the number of returned rows (0 = unlimited).
func (q *Query) Limit(n int) *Query {
	q.limit = n
	return q
}

// Select returns copies of all rows matching the query, ordered by key
// for determinism. With Limit set, the scan stops as soon as the limit
// is reached instead of materialising the full candidate set.
func (tx *Tx) Select(tableName string, q *Query) ([]Row, error) {
	var out []Row
	err := tx.scan(tableName, q, func(row Row) bool {
		out = append(out, row.Clone())
		return true
	})
	return out, err
}

// SelectFunc streams matching rows to fn in key order, stopping early
// when fn returns false. Unlike Select it does not clone: fn receives
// the store's internal row (or the transaction's pending row) and must
// not mutate it or its values. Those values may be kept read-only beyond
// the transaction — no row is ever mutated once stored (see View); use
// Select when a copy to mutate is needed.
func (tx *Tx) SelectFunc(tableName string, q *Query, fn func(Row) bool) error {
	return tx.scan(tableName, q, fn)
}

// Count returns the number of rows matching the query without cloning
// or materialising them.
func (tx *Tx) Count(tableName string, q *Query) (int, error) {
	n := 0
	err := tx.scan(tableName, q, func(Row) bool { n++; return true })
	return n, err
}

// scan is the query planner and executor behind Select, SelectFunc and
// Count. Committed rows come from the access path chosen by plan (the
// smallest matching posting list, probing the remaining indexed
// equalities, or the primary-key list) and every condition, range
// predicates included, is then checked against the resolved row; pending
// writes are merged in by id so uncommitted rows, overwrites and
// tombstones are all visible.
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
	driver, probes := t.plan(q)

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
	emit := func(id string) bool {
		row := tx.effectiveRow(t, tableName, id)
		if row == nil || !matchesQuery(row, q) {
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
		cid, cok := driver.peek()
		// Skip committed ids that fail an indexed probe without paying
		// for row resolution (matchesQuery would reject them anyway).
		for cok && !inAll(probes, cid) {
			driver.next()
			cid, cok = driver.peek()
		}
		pok := pi < len(pend)
		switch {
		case !cok && !pok:
			return nil
		case cok && (!pok || cid < pend[pi]):
			if !emit(cid) {
				return nil
			}
			driver.next()
		case pok && (!cok || pend[pi] < cid):
			if !emit(pend[pi]) {
				return nil
			}
			pi++
		default: // same id: the pending write supersedes the committed row
			if !emit(pend[pi]) {
				return nil
			}
			driver.next()
			pi++
		}
	}
}

// plan chooses the committed-row access path for q. Candidates are the
// posting lists of the indexed equality conditions: the smallest drives
// the scan and the rest become O(1) membership probes. Every condition —
// range predicates and unindexed equalities included — is re-checked
// against the resolved row by matchesQuery, so plan only has to narrow
// the walk, not decide the answer. Without an indexed equality the
// sorted primary-key list drives (full scan). An equality on a value no
// committed row holds yields an empty driver: only pending writes can
// match then.
func (t *table) plan(q *Query) (driver *plCursor, probes []*postingList) {
	var lists []*postingList
	smallest := 0
	for _, eq := range q.eq {
		idx, ok := t.indexes[eq.col]
		if !ok {
			continue
		}
		pl := idx[indexKey(eq.val)]
		if pl == nil || pl.len() == 0 {
			return &plCursor{}, nil
		}
		if len(lists) > 0 && pl.len() < lists[smallest].len() {
			smallest = len(lists)
		}
		lists = append(lists, pl)
	}
	if len(lists) == 0 {
		return &plCursor{pl: t.keys}, nil
	}
	// The driver is read out before the append below closes the gap over
	// its slot: Go leaves the order of the two unspecified within one
	// expression, and reading second lets the larger list drive.
	drive := lists[smallest]
	return &plCursor{pl: drive}, append(lists[:smallest], lists[smallest+1:]...)
}

// inAll reports whether id is live in every posting list.
func inAll(pls []*postingList, id string) bool {
	for _, pl := range pls {
		if !pl.contains(id) {
			return false
		}
	}
	return true
}

// effectiveRow resolves a row id through the transaction's write buffer.
func (tx *Tx) effectiveRow(t *table, tableName, id string) Row {
	if p, ok := tx.pending[pendingKey{tableName, id}]; ok {
		return p // may be nil (tombstone)
	}
	return t.rows[id]
}

func matchesQuery(row Row, q *Query) bool {
	for _, eq := range q.eq {
		v, ok := row[eq.col]
		if !ok || !valueEqual(v, eq.val) {
			return false
		}
	}
	for _, r := range q.ranges {
		v, ok := row[r.col]
		if !ok {
			return false // absent (nullable) columns match no range
		}
		c, ok := compareValues(v, r.val)
		if !ok {
			return false
		}
		switch r.op {
		case opLt:
			ok = c < 0
		case opLe:
			ok = c <= 0
		case opGt:
			ok = c > 0
		case opGe:
			ok = c >= 0
		}
		if !ok {
			return false
		}
	}
	for _, f := range q.filters {
		if !f(row) {
			return false
		}
	}
	return true
}

// compareValues orders two column values of the same supported type,
// returning -1/0/+1 and whether the pair is comparable at all.
func compareValues(a, b any) (int, bool) {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		if !ok {
			return 0, false
		}
		return cmpOrdered(x, y), true
	case float64:
		y, ok := b.(float64)
		if !ok {
			return 0, false
		}
		// NaN is incomparable: it matches no range, as a row value or as
		// a bound.
		if math.IsNaN(x) || math.IsNaN(y) {
			return 0, false
		}
		return cmpOrdered(x, y), true
	case string:
		y, ok := b.(string)
		if !ok {
			return 0, false
		}
		return cmpOrdered(x, y), true
	case bool:
		y, ok := b.(bool)
		if !ok {
			return 0, false
		}
		bx, by := 0, 0
		if x {
			bx = 1
		}
		if y {
			by = 1
		}
		return cmpOrdered(bx, by), true
	case time.Time:
		y, ok := b.(time.Time)
		if !ok {
			return 0, false
		}
		return x.Compare(y), true
	}
	return 0, false
}

// cmpOrdered is three-way comparison for ordered primitives.
func cmpOrdered[T int | int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// valueEqual compares two column values of the supported types.
func valueEqual(a, b any) bool {
	if ab, ok := a.([]byte); ok {
		bb, ok2 := b.([]byte)
		if !ok2 || len(ab) != len(bb) {
			return false
		}
		for i := range ab {
			if ab[i] != bb[i] {
				return false
			}
		}
		return true
	}
	return a == b
}

package relstore

import "sort"

// postingList is an ordered set of row ids: the building block of both
// the secondary indexes and the per-table primary-key list. It keeps a
// sorted id slice for in-order scans and the count of its live ids for
// the planner; the table's rows are the membership record. An id is a
// live member of the list for (col, val) exactly when the table's row for
// that id holds val in col. The key list (col "") holds every id whose row
// exists; it is add-only (applyPut is its one mutation), so every entry
// of it is live and its cursor checks nothing.
//
// The callers keep one invariant, which the counts depend on: add is
// called only for a row that newly takes the list's value (or, on the key
// list, a new row), and remove only for a row that has left it, once the
// table's rows hold the row's new value. applyPut and reindex are the
// only callers.
//
// Removals do not shift the slice; they only count the entry as stale. A
// compaction rewrites the slice once more than half of it is stale, which
// makes removal amortised O(1) and lookup O(log n) while scans stay
// ordered. Insertion appends when the id sorts last (the common case for
// monotonically increasing ids such as job ids) and falls back to a
// sorted insert otherwise. Queue-shaped workloads (claim the lowest id,
// over and over) would otherwise re-skip an ever-growing stale prefix on
// every scan, so the list also keeps head — the position of the first
// live entry. It is only advanced by mutations, which run under the
// store's exclusive lock, never by concurrent readers.
type postingList struct {
	col, val string   // the column and value the list files; col "" for the key list
	ids      []string // ascending; may contain stale (removed) entries
	live     int
	stale    int
	head     int // index of the first live entry in ids
}

func newPostingList(col, val string) *postingList {
	return &postingList{col: col, val: val}
}

// len reports the number of live ids.
func (p *postingList) len() int { return p.live }

// member returns id's row and whether id is a live member: whether the
// row holds the list's value.
func (p *postingList) member(rows map[string]Row, id string) (Row, bool) {
	row := rows[id]
	if p.col == "" {
		return row, true
	}
	v, ok := row[p.col].(string)
	return row, ok && v == p.val
}

// add inserts id, keeping the slice sorted; an id whose stale slot still
// exists is resurrected in place.
func (p *postingList) add(id string) {
	p.live++
	if n := len(p.ids); n == 0 || p.ids[n-1] < id {
		p.ids = append(p.ids, id)
		return
	}
	i := sort.SearchStrings(p.ids, id)
	if i < len(p.ids) && p.ids[i] == id {
		p.stale-- // resurrected a stale slot
		if i < p.head {
			p.head = i
		}
		return
	}
	p.ids = append(p.ids, "")
	copy(p.ids[i+1:], p.ids[i:])
	p.ids[i] = id
	if i < p.head {
		p.head = i
	}
}

// remove counts id's entry as stale, compacting the slice when stale
// entries dominate. rows already holds id's new row.
func (p *postingList) remove(rows map[string]Row, id string) {
	p.live--
	p.stale++
	// Trim the stale prefix so in-order scans start at a live entry.
	// Queue-style consumers remove exactly at head, making this O(1)
	// amortised instead of an O(removed) skip on every later scan.
	for p.head < len(p.ids) {
		if _, ok := p.member(rows, p.ids[p.head]); ok {
			break
		}
		p.head++
	}
	if p.stale*2 > len(p.ids) {
		p.compact(rows)
	}
}

// compact rewrites the slice keeping only live ids, in order.
func (p *postingList) compact(rows map[string]Row) {
	out := p.ids[:0]
	for _, id := range p.ids {
		if _, ok := p.member(rows, id); ok {
			out = append(out, id)
		}
	}
	// Zero the tail so removed ids do not pin their backing strings.
	for i := len(out); i < len(p.ids); i++ {
		p.ids[i] = ""
	}
	p.ids = out
	p.stale = 0
	p.head = 0
}

// plCursor walks a posting list in id order, transparently skipping
// stale entries, and hands back each live id's row. A nil list yields
// nothing. The list must not be mutated while a cursor is open (scans run
// under the store lock).
type plCursor struct {
	pl   *postingList
	rows map[string]Row
	i    int
}

// peek returns the current live id and its row without advancing.
func (c *plCursor) peek() (string, Row, bool) {
	if c.pl == nil {
		return "", nil, false
	}
	if c.i < c.pl.head {
		c.i = c.pl.head
	}
	for c.i < len(c.pl.ids) {
		id := c.pl.ids[c.i]
		if row, ok := c.pl.member(c.rows, id); ok {
			return id, row, true
		}
		c.i++
	}
	return "", nil, false
}

// next advances past the current id.
func (c *plCursor) next() { c.i++ }

package relstore

import "sort"

// postingList is an ordered set of row ids: the building block of both
// the secondary indexes and the per-table primary-key list. It keeps a
// sorted id slice for in-order scans next to an authoritative membership
// map for O(1) probes.
//
// Removals do not shift the slice; they only drop the id from the live
// map and count the entry as stale. A compaction rewrites the slice once
// more than half of it is stale, which makes removal amortised O(1) and
// lookup O(log n) while scans stay ordered. Insertion appends when the
// id sorts last (the common case for monotonically increasing ids such
// as job ids) and falls back to a sorted insert otherwise.
// Queue-shaped workloads (claim the lowest id, over and over) would
// otherwise re-skip an ever-growing stale prefix on every scan, so the
// list also keeps head — the position of the first live entry. It is
// only advanced by mutations, which run under the store's exclusive
// lock, never by concurrent readers.
type postingList struct {
	ids   []string // ascending; may contain stale (removed) entries
	live  map[string]struct{}
	stale int
	head  int // index of the first live entry in ids
}

func newPostingList() *postingList {
	return &postingList{live: make(map[string]struct{})}
}

// len reports the number of live ids.
func (p *postingList) len() int { return len(p.live) }

// contains reports whether id is a live member.
func (p *postingList) contains(id string) bool {
	_, ok := p.live[id]
	return ok
}

// add inserts id, keeping the slice sorted. Adding a present id is a
// no-op; adding an id whose stale slot still exists resurrects it in
// place.
func (p *postingList) add(id string) {
	if _, ok := p.live[id]; ok {
		return
	}
	p.live[id] = struct{}{}
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

// remove drops id from the live set, compacting the slice when stale
// entries dominate.
func (p *postingList) remove(id string) {
	if _, ok := p.live[id]; !ok {
		return
	}
	delete(p.live, id)
	p.stale++
	// Trim the stale prefix so in-order scans start at a live entry.
	// Queue-style consumers remove exactly at head, making this O(1)
	// amortised instead of an O(removed) skip on every later scan.
	for p.head < len(p.ids) {
		if _, ok := p.live[p.ids[p.head]]; ok {
			break
		}
		p.head++
	}
	if p.stale*2 > len(p.ids) {
		p.compact()
	}
}

// compact rewrites the slice keeping only live ids, in order.
func (p *postingList) compact() {
	out := p.ids[:0]
	for _, id := range p.ids {
		if _, ok := p.live[id]; ok {
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
// stale entries. A nil list yields nothing. The list must not be
// mutated while a cursor is open (scans run under the store lock).
type plCursor struct {
	pl *postingList
	i  int
}

// peek returns the current live id without advancing.
func (c *plCursor) peek() (string, bool) {
	if c.pl == nil {
		return "", false
	}
	if c.i < c.pl.head {
		c.i = c.pl.head
	}
	for c.i < len(c.pl.ids) {
		id := c.pl.ids[c.i]
		if _, ok := c.pl.live[id]; ok {
			return id, true
		}
		c.i++
	}
	return "", false
}

// next advances past the current id.
func (c *plCursor) next() { c.i++ }

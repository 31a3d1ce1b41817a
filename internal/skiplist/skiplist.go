// Package skiplist is the ordered key set of the simulators: mongosim's
// key index (wiredTiger's B-tree stand-in, mmapv1's _id index) and
// tssim's series catalogue. It holds only what they ask of it — insert,
// an in-order read from a start key, and the count. Keys are never
// removed, since no evaluation deletes a document or a series.
// Synchronisation is the caller's job, as a storage engine guards its
// own index.
package skiplist

import "math/rand/v2"

// List is an ordered set of string keys.
type List struct {
	head   *node
	level  int
	length int
	rng    *rand.Rand
}

const maxLevel = 24

type node struct {
	key  string
	next [maxLevel]*node
}

// New returns an empty set. The seed fixes tower heights so runs are
// reproducible; each list owns its source, so its randomness never
// contends on (or leaks into) a process-global state.
func New(seed int64) *List {
	return &List{
		head:  &node{},
		level: 1,
		rng:   rand.New(rand.NewPCG(uint64(seed), 0x736b6970)),
	}
}

// randomLevel draws a tower height with P(level > k) = 2^-k.
func (l *List) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && l.rng.IntN(2) == 0 {
		lvl++
	}
	return lvl
}

// Insert adds key to the set; inserting an existing key is a no-op.
// Reports whether the key was newly added.
func (l *List) Insert(key string) bool {
	var update [maxLevel]*node
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		update[i] = x
	}
	if n := x.next[0]; n != nil && n.key == key {
		return false
	}
	lvl := l.randomLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			update[i] = l.head
		}
		l.level = lvl
	}
	n := &node{key: key}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	l.length++
	return true
}

// From returns up to limit keys >= start in ascending order.
func (l *List) From(start string, limit int) []string {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < start {
			x = x.next[i]
		}
	}
	out := make([]string, 0, limit)
	for n := x.next[0]; n != nil && len(out) < limit; n = n.next[0] {
		out = append(out, n.key)
	}
	return out
}

// Len returns the number of keys.
func (l *List) Len() int { return l.length }

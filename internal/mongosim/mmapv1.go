package mongosim

import (
	"fmt"
	"sync"

	"chronos/internal/skiplist"
)

// mmapV1 models MongoDB's legacy mmapv1 engine:
//
//   - Collection-level locking: one reader/writer lock guards the whole
//     collection, so concurrent writers serialise (the demo's central
//     contrast with wiredTiger). Readers share the lock.
//   - Memory-mapped extents: documents live in large contiguous slabs;
//     reads are plain memory copies with no decompression.
//   - Power-of-2 padded records: updates that fit the padded slot happen
//     in place; growing beyond it relocates the record (a "move", which
//     mmapv1 workloads notoriously suffer from).
//
// No compression: stored bytes exceed logical bytes by the padding waste
// instead.
type mmapV1 struct {
	opts Options
	cnt  counters

	mu      sync.RWMutex
	io      ioBatcher // collection-wide write I/O wait (global lock)
	dir     map[string]recordRef
	extents [][]byte
	brk     int // bump-allocation offset within the last extent
	free    map[int][]recordRef
	idx     *skiplist.List
}

// recordRef locates a record inside the extents.
type recordRef struct {
	extent int
	off    int
	length int // live bytes
	cap    int // padded slot size
}

const (
	mmapExtentSize = 4 << 20
	mmapMinRecord  = 32
)

func newMMAPv1(opts Options) *mmapV1 {
	return &mmapV1{
		opts: opts,
		io:   newIOBatcher(opts.WriteLatency),
		dir:  make(map[string]recordRef),
		free: make(map[int][]recordRef),
		idx:  skiplist.New(opts.Seed + 2),
	}
}

func (m *mmapV1) Name() string { return EngineMMAPv1 }

// slotSize computes the padded record size for n bytes.
func (m *mmapV1) slotSize(n int) int {
	if m.opts.DisablePadding {
		if n < 1 {
			return 1
		}
		return n
	}
	size := mmapMinRecord
	for size < n {
		size <<= 1
	}
	return size
}

// alloc finds or creates a slot of at least size bytes. Caller holds the
// write lock.
func (m *mmapV1) alloc(size int) recordRef {
	if refs := m.free[size]; len(refs) > 0 {
		ref := refs[len(refs)-1]
		m.free[size] = refs[:len(refs)-1]
		return ref
	}
	if len(m.extents) == 0 || m.brk+size > mmapExtentSize {
		ext := mmapExtentSize
		if size > ext {
			ext = size
		}
		m.extents = append(m.extents, make([]byte, ext))
		m.brk = 0
	}
	ref := recordRef{extent: len(m.extents) - 1, off: m.brk, cap: size}
	m.brk += size
	return ref
}

// write copies val into the slot. Caller holds the write lock.
func (m *mmapV1) write(ref recordRef, val []byte) recordRef {
	copy(m.extents[ref.extent][ref.off:ref.off+len(val)], val)
	ref.length = len(val)
	return ref
}

// view is the record's bytes in its extent, its capacity clipped so an
// append cannot run into the slot's padding or the next record. Caller
// holds the lock and drops the view before releasing it.
func (m *mmapV1) view(ref recordRef) []byte {
	return m.extents[ref.extent][ref.off : ref.off+ref.length : ref.off+ref.length]
}

// readCopy copies the record out of its extent. Caller holds at least the
// read lock; the copy is what makes the result safe to use after release
// (a page fault + memcpy is exactly mmapv1's read path).
func (m *mmapV1) readCopy(ref recordRef) []byte {
	out := make([]byte, ref.length)
	copy(out, m.extents[ref.extent][ref.off:ref.off+ref.length])
	return out
}

func (m *mmapV1) Get(key string) ([]byte, bool) {
	m.cnt.reads.Add(1)
	m.mu.RLock()
	ref, ok := m.dir[key]
	if !ok {
		m.mu.RUnlock()
		return nil, false
	}
	val := m.readCopy(ref)
	m.mu.RUnlock()
	return val, true
}

func (m *mmapV1) Insert(key string, val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.dir[key]; exists {
		return fmt.Errorf("mongosim: duplicate key %q", key)
	}
	m.insertLocked(key, val)
	return nil
}

// insertLocked allocates, writes and indexes a new record.
func (m *mmapV1) insertLocked(key string, val []byte) {
	ref := m.alloc(m.slotSize(len(val)))
	ref = m.write(ref, val)
	// Journal/dirty-page wait under the *collection* lock: every other
	// reader and writer of the collection stalls behind it.
	m.io.Tick()
	m.dir[key] = ref
	m.idx.Insert(key)
	m.cnt.writes.Add(1)
	m.cnt.bytesLogical.Add(int64(len(val)))
	m.cnt.bytesStored.Add(int64(ref.cap))
}

// updateLocked overwrites an existing record, in place when it fits.
func (m *mmapV1) updateLocked(key string, old recordRef, val []byte) {
	m.cnt.writes.Add(1)
	m.cnt.bytesLogical.Add(int64(len(val)))
	if len(val) <= old.cap {
		// The rewritten slot is stored bytes again, as a moved record's
		// new slot is: the ratio compares like with like.
		m.dir[key] = m.write(old, val)
		m.cnt.bytesStored.Add(int64(old.cap))
		m.io.Tick()
		return
	}
	// Record outgrew its padding: move it (free old slot, allocate new).
	m.free[old.cap] = append(m.free[old.cap], old)
	m.cnt.moves.Add(1)
	ref := m.alloc(m.slotSize(len(val)))
	ref = m.write(ref, val)
	m.dir[key] = ref
	m.cnt.bytesStored.Add(int64(ref.cap))
	m.io.Tick()
}

func (m *mmapV1) Put(key string, val []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, exists := m.dir[key]; exists {
		m.updateLocked(key, old, val)
		return
	}
	m.insertLocked(key, val)
}

func (m *mmapV1) Apply(key string, fn func(old []byte, exists bool) ([]byte, error)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, exists := m.dir[key]
	var oldVal []byte
	if exists {
		oldVal = m.view(old)
	}
	repl, err := fn(oldVal, exists)
	if err != nil {
		return err
	}
	if exists {
		m.updateLocked(key, old, repl)
	} else {
		m.insertLocked(key, repl)
	}
	return nil
}

func (m *mmapV1) Scan(start string, limit int) []KV {
	m.cnt.scans.Add(1)
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := m.idx.From(start, limit)
	out := make([]KV, len(keys))
	for i, k := range keys {
		out[i] = KV{Key: k, Value: m.readCopy(m.dir[k])}
	}
	return out
}

func (m *mmapV1) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.idx.Len()
}

func (m *mmapV1) Stats() Stats {
	m.mu.RLock()
	docs := m.idx.Len()
	m.mu.RUnlock()
	return m.cnt.snapshot(EngineMMAPv1, docs)
}

func (m *mmapV1) Close() error { return nil }

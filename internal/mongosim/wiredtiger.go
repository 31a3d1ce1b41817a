package mongosim

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
)

// wiredTiger models MongoDB's wiredTiger engine with the three mechanisms
// the demo's comparison hinges on:
//
//   - Document-level concurrency: the key space is hash-partitioned into
//     stripes, each with its own lock, so concurrent writers to different
//     documents proceed in parallel (real wiredTiger uses optimistic
//     document-level concurrency control).
//   - Block compression: stored values are flate-compressed; writes pay
//     compression CPU, cold reads pay decompression CPU.
//   - Cache: a bounded per-stripe cache of decompressed documents absorbs
//     hot reads, like wiredTiger's uncompressed in-memory pages.
//
// A journal accumulates write bytes and checkpoints periodically, which
// feeds the Checkpoints statistic.
type wiredTiger struct {
	opts     Options
	stripes  []*wtStripe
	idx      keyIndex
	cnt      counters
	journal  journal
	perCache int

	comprPool  sync.Pool // *flate.Writer
	decompPool sync.Pool // io.ReadCloser implementing flate.Resetter
}

const wtStripeCount = 128

// wtStripe holds one hash partition of the key space.
type wtStripe struct {
	mu   sync.RWMutex
	docs map[string][]byte // compressed "disk" image
	io   ioBatcher         // per-stripe write I/O wait (doc-level concurrency)

	// The cache mirrors docs, so a key's cache entry is written or dropped
	// while mu is held (shared by a reader filling it, exclusive by a
	// writer): in the order the stripe's writes happen, never after a later
	// one. cacheMu only guards the map itself; it nests inside mu.
	cacheMu   sync.Mutex
	cache     map[string][]byte // decompressed documents
	cacheFIFO []string
}

// keyIndex is the ordered key structure shared by point inserts/deletes
// and range scans (wiredTiger's B-tree stand-in). Updates never touch it.
type keyIndex struct {
	mu sync.RWMutex
	sl *skiplist
}

// journal models the write-ahead journal: bytes accumulate and a
// checkpoint fires every wtCheckpointBytes.
type journal struct {
	mu    sync.Mutex
	dirty int64
}

const wtCheckpointBytes = 4 << 20

func newWiredTiger(opts Options) *wiredTiger {
	w := &wiredTiger{
		opts:     opts,
		stripes:  make([]*wtStripe, wtStripeCount),
		idx:      keyIndex{sl: newSkiplist(opts.Seed + 1)},
		perCache: opts.CacheDocs / wtStripeCount,
	}
	if w.perCache < 4 {
		w.perCache = 4
	}
	for i := range w.stripes {
		w.stripes[i] = &wtStripe{
			docs:  make(map[string][]byte),
			cache: make(map[string][]byte),
			io:    newIOBatcher(opts.WriteLatency),
		}
	}
	w.comprPool.New = func() any {
		fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level; cannot happen
		}
		return fw
	}
	w.decompPool.New = func() any {
		return flate.NewReader(bytes.NewReader(nil))
	}
	return w
}

func (w *wiredTiger) Name() string { return EngineWiredTiger }

func (w *wiredTiger) stripe(key string) *wtStripe {
	h := fnv.New32a()
	io.WriteString(h, key)
	return w.stripes[h.Sum32()%wtStripeCount]
}

// compress produces the stored form: a marker byte (0 raw, 1 flate)
// followed by the payload. Incompressible payloads stay raw.
func (w *wiredTiger) compress(val []byte) []byte {
	if w.opts.DisableCompression {
		out := make([]byte, len(val)+1)
		out[0] = 0
		copy(out[1:], val)
		return out
	}
	var buf bytes.Buffer
	buf.WriteByte(1)
	fw := w.comprPool.Get().(*flate.Writer)
	fw.Reset(&buf)
	fw.Write(val)
	fw.Close()
	w.comprPool.Put(fw)
	if buf.Len() >= len(val)+1 {
		out := make([]byte, len(val)+1)
		out[0] = 0
		copy(out[1:], val)
		return out
	}
	return buf.Bytes()
}

// decompress reverses compress.
func (w *wiredTiger) decompress(stored []byte) []byte {
	if len(stored) == 0 {
		return nil
	}
	if stored[0] == 0 {
		out := make([]byte, len(stored)-1)
		copy(out, stored[1:])
		return out
	}
	fr := w.decompPool.Get().(io.ReadCloser)
	fr.(flate.Resetter).Reset(bytes.NewReader(stored[1:]), nil)
	out, err := io.ReadAll(fr)
	fr.Close()
	w.decompPool.Put(fr)
	if err != nil {
		// A corrupt block would be an engine bug; surface loudly in tests.
		panic(fmt.Sprintf("mongosim: wiredtiger decompression failed: %v", err))
	}
	return out
}

// cacheGet returns a cached decompressed document.
func (s *wtStripe) cacheGet(key string) ([]byte, bool) {
	s.cacheMu.Lock()
	v, ok := s.cache[key]
	s.cacheMu.Unlock()
	return v, ok
}

// cachePut inserts a decompressed document, evicting FIFO beyond cap.
func (s *wtStripe) cachePut(key string, val []byte, capDocs int) {
	s.cacheMu.Lock()
	if _, exists := s.cache[key]; !exists {
		s.cacheFIFO = append(s.cacheFIFO, key)
	}
	s.cache[key] = val
	for len(s.cache) > capDocs && len(s.cacheFIFO) > 0 {
		old := s.cacheFIFO[0]
		s.cacheFIFO = s.cacheFIFO[1:]
		delete(s.cache, old)
	}
	s.cacheMu.Unlock()
}

// cacheDrop removes a key from the cache (on delete).
func (s *wtStripe) cacheDrop(key string) {
	s.cacheMu.Lock()
	delete(s.cache, key)
	s.cacheMu.Unlock()
}

func (w *wiredTiger) Get(key string) ([]byte, bool) {
	w.cnt.reads.Add(1)
	s := w.stripe(key)
	if v, ok := s.cacheGet(key); ok {
		w.cnt.cacheHits.Add(1)
		return v, true
	}
	return w.load(s, key)
}

// load reads a document that missed the cache from its stored image and
// caches it, all under the stripe's shared lock: a write to the key
// cannot fall between the read and the fill and leave the older value
// cached over its own.
func (w *wiredTiger) load(s *wtStripe, key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	stored, ok := s.docs[key]
	if !ok {
		return nil, false
	}
	w.cnt.cacheMisses.Add(1)
	val := w.decompress(stored)
	s.cachePut(key, val, w.perCache)
	return val, true
}

func (w *wiredTiger) Insert(key string, val []byte) error {
	s := w.stripe(key)
	stored := w.compress(val)
	s.mu.Lock()
	if _, exists := s.docs[key]; exists {
		s.mu.Unlock()
		return fmt.Errorf("mongosim: duplicate key %q", key)
	}
	s.docs[key] = stored
	// Journal/page write wait under the *stripe* lock only: writers to
	// other stripes overlap their I/O (document-level concurrency).
	s.io.Tick()
	s.cachePut(key, val, w.perCache)
	s.mu.Unlock()
	w.afterWrite(key, val, stored, true)
	return nil
}

func (w *wiredTiger) Put(key string, val []byte) {
	s := w.stripe(key)
	stored := w.compress(val)
	s.mu.Lock()
	_, existed := s.docs[key]
	s.docs[key] = stored
	s.io.Tick()
	s.cachePut(key, val, w.perCache)
	s.mu.Unlock()
	w.afterWrite(key, val, stored, !existed)
}

func (w *wiredTiger) Apply(key string, fn func(old []byte, exists bool) ([]byte, error)) error {
	s := w.stripe(key)
	s.mu.Lock()
	stored, exists := s.docs[key]
	var old []byte
	if exists {
		old = w.decompress(stored)
	}
	repl, err := fn(old, exists)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if repl == nil {
		if exists {
			delete(s.docs, key)
			s.cacheDrop(key)
		}
		s.mu.Unlock()
		if exists {
			w.cnt.deletes.Add(1)
			w.idx.mu.Lock()
			w.idx.sl.remove(key)
			w.idx.mu.Unlock()
		}
		return nil
	}
	newStored := w.compress(repl)
	s.docs[key] = newStored
	s.io.Tick()
	s.cachePut(key, repl, w.perCache)
	s.mu.Unlock()
	w.afterWrite(key, repl, newStored, !exists)
	return nil
}

// afterWrite maintains counters, the ordered index and the journal.
func (w *wiredTiger) afterWrite(key string, val, stored []byte, newKey bool) {
	w.cnt.writes.Add(1)
	w.cnt.bytesLogical.Add(int64(len(val)))
	w.cnt.bytesStored.Add(int64(len(stored)))
	if newKey {
		w.idx.mu.Lock()
		w.idx.sl.insert(key)
		w.idx.mu.Unlock()
	}
	w.journal.mu.Lock()
	w.journal.dirty += int64(len(stored))
	if w.journal.dirty >= wtCheckpointBytes {
		w.journal.dirty = 0
		w.cnt.checkpoints.Add(1)
	}
	w.journal.mu.Unlock()
}

func (w *wiredTiger) Delete(key string) bool {
	s := w.stripe(key)
	s.mu.Lock()
	_, existed := s.docs[key]
	delete(s.docs, key)
	s.cacheDrop(key)
	s.mu.Unlock()
	if !existed {
		return false
	}
	w.cnt.deletes.Add(1)
	w.idx.mu.Lock()
	w.idx.sl.remove(key)
	w.idx.mu.Unlock()
	return true
}

func (w *wiredTiger) Scan(start string, limit int) []KV {
	w.cnt.scans.Add(1)
	w.idx.mu.RLock()
	keys := w.idx.sl.from(start, limit)
	w.idx.mu.RUnlock()
	out := make([]KV, 0, len(keys))
	for _, k := range keys {
		// Benefit from / populate the cache like point reads do, without
		// counting each fetch as a logical read.
		s := w.stripe(k)
		if v, ok := s.cacheGet(k); ok {
			w.cnt.cacheHits.Add(1)
			out = append(out, KV{Key: k, Value: v})
			continue
		}
		if v, ok := w.load(s, k); ok { // else deleted between index read and fetch
			out = append(out, KV{Key: k, Value: v})
		}
	}
	return out
}

func (w *wiredTiger) Len() int {
	w.idx.mu.RLock()
	defer w.idx.mu.RUnlock()
	return w.idx.sl.len()
}

func (w *wiredTiger) Stats() Stats { return w.cnt.snapshot(EngineWiredTiger, w.Len()) }

func (w *wiredTiger) Close() error { return nil }

package mongosim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Engine names as the Chronos demo exposes them in the "engine" parameter.
const (
	EngineWiredTiger = "wiredtiger"
	EngineMMAPv1     = "mmapv1"
)

// KV is one key/value pair returned by Scan.
type KV struct {
	Key   string
	Value []byte
}

// Engine is the storage engine contract of the simulator. Implementations
// are safe for concurrent use. Values returned by Get and Scan must be
// treated as read-only and not retained across subsequent engine calls;
// values passed to Insert/Put/Apply are owned by the engine afterwards.
// Documents are only ever added or replaced: no evaluation deletes one.
type Engine interface {
	// Name returns the engine identifier (wiredtiger or mmapv1).
	Name() string
	// Get returns the stored value for key.
	Get(key string) ([]byte, bool)
	// Insert stores a new document; it fails if the key exists.
	Insert(key string, val []byte) error
	// Put stores a document, replacing any existing one.
	Put(key string, val []byte)
	// Apply atomically transforms the document under key: fn receives the
	// current value (nil, false when absent) and returns the replacement,
	// which is stored. Errors from fn abort without modification. The
	// current value is read-only and valid only until fn returns.
	Apply(key string, fn func(old []byte, exists bool) ([]byte, error)) error
	// Scan returns up to limit pairs with key >= start in key order.
	Scan(start string, limit int) []KV
	// Len returns the number of stored documents.
	Len() int
	// Stats returns a snapshot of the engine counters.
	Stats() Stats
	// Close releases engine resources.
	Close() error
}

// DefaultWriteLatency is the simulated per-document write I/O wait: the
// time a journal append + dirty page write takes on the modelled disk.
// ~100µs corresponds to a datacenter SSD commit.
const DefaultWriteLatency = 100 * time.Microsecond

// Options tunes engine construction. The ablation benches flip the
// mechanism switches individually.
type Options struct {
	// CacheDocs bounds the wiredTiger decompressed-document cache (total
	// documents across all stripes). 0 means the default of 8192.
	CacheDocs int
	// DisableCompression turns off wiredTiger block compression
	// (ablation: isolates the compression cost/benefit).
	DisableCompression bool
	// DisablePadding turns off mmapv1 power-of-2 record padding
	// (ablation: every growing update then relocates the record).
	DisablePadding bool
	// WriteLatency is the simulated amortised write I/O wait each document
	// write incurs *while holding the engine's write lock* — the whole
	// collection for mmapv1, a single stripe for wiredTiger. This is the
	// substitution for the paper's real disks: lock granularity then
	// determines how much write I/O overlaps across client threads, which
	// is precisely the wiredTiger-vs-mmapv1 phenomenon the demo measures.
	//
	// Because OS sleep granularity is ~1ms, the wait is applied in quanta:
	// every K-th write to a lock domain sleeps K*WriteLatency (K chosen so
	// the quantum is >= 1ms), like a group-committed journal flush.
	//
	// 0 selects DefaultWriteLatency; a negative value disables the wait
	// (pure in-memory CPU costs, used by unit tests and CPU ablations).
	WriteLatency time.Duration
	// Seed fixes internal randomised structures for reproducibility.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.CacheDocs == 0 {
		o.CacheDocs = 8192
	}
	if o.WriteLatency == 0 {
		o.WriteLatency = DefaultWriteLatency
	}
	if o.WriteLatency < 0 {
		o.WriteLatency = 0
	}
	return o
}

// NoIO is the Options.WriteLatency value that disables the simulated
// write wait.
const NoIO = -1 * time.Nanosecond

// ioBatcher turns a per-write latency into periodic sleep quanta: every
// K-th Tick sleeps K*latency, with the quantum held at >= 1ms so the OS
// honours it. One batcher guards one lock domain (a wiredTiger stripe or
// the whole mmapv1 collection) and must be ticked while that domain's
// write lock is held.
type ioBatcher struct {
	every   int
	quantum time.Duration
	n       int
}

// newIOBatcher derives the batching parameters from the amortised
// per-write latency. A zero-value batcher (latency <= 0) never sleeps.
func newIOBatcher(latency time.Duration) ioBatcher {
	if latency <= 0 {
		return ioBatcher{}
	}
	every := int(time.Millisecond / latency)
	if every < 1 {
		every = 1
	}
	return ioBatcher{every: every, quantum: time.Duration(every) * latency}
}

// Tick registers one write and sleeps when the batch is full. Caller
// holds the domain's write lock.
func (b *ioBatcher) Tick() {
	if b.every == 0 {
		return
	}
	b.n++
	if b.n >= b.every {
		b.n = 0
		time.Sleep(b.quantum)
	}
}

// New constructs a storage engine by name.
func New(name string, opts Options) (Engine, error) {
	opts = opts.withDefaults()
	switch name {
	case EngineWiredTiger:
		return newWiredTiger(opts), nil
	case EngineMMAPv1:
		return newMMAPv1(opts), nil
	default:
		return nil, fmt.Errorf("mongosim: unknown storage engine %q", name)
	}
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Engine       string `json:"engine"`
	Documents    int    `json:"documents"`
	Reads        int64  `json:"reads"`
	Writes       int64  `json:"writes"`
	Scans        int64  `json:"scans"`
	BytesLogical int64  `json:"bytesLogical"`
	BytesStored  int64  `json:"bytesStored"`
	CacheHits    int64  `json:"cacheHits"`
	CacheMisses  int64  `json:"cacheMisses"`
	// Moves counts mmapv1 record relocations on growing updates.
	Moves int64 `json:"moves"`
	// Checkpoints counts wiredTiger journal checkpoint cycles.
	Checkpoints int64 `json:"checkpoints"`
}

// CompressionRatio reports logical/stored bytes (1.0 = incompressible).
func (s Stats) CompressionRatio() float64 {
	if s.BytesStored == 0 {
		return 1
	}
	return float64(s.BytesLogical) / float64(s.BytesStored)
}

// counters aggregates hot-path counters with atomics shared by both
// engines.
type counters struct {
	reads, writes, scans      atomic.Int64
	bytesLogical, bytesStored atomic.Int64
	cacheHits, cacheMisses    atomic.Int64
	moves, checkpoints        atomic.Int64
}

func (c *counters) snapshot(engine string, docs int) Stats {
	return Stats{
		Engine:       engine,
		Documents:    docs,
		Reads:        c.reads.Load(),
		Writes:       c.writes.Load(),
		Scans:        c.scans.Load(),
		BytesLogical: c.bytesLogical.Load(),
		BytesStored:  c.bytesStored.Load(),
		CacheHits:    c.cacheHits.Load(),
		CacheMisses:  c.cacheMisses.Load(),
		Moves:        c.moves.Load(),
		Checkpoints:  c.checkpoints.Load(),
	}
}

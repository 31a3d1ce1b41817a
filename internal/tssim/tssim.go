// Package tssim implements an in-process append-optimized time-series
// store, the second system-under-evaluation family beside mongosim. Like
// mongosim it is a deliberately simple but honest simulation: per-series
// chunked storage with an in-order append fast path, out-of-order
// tolerance inside the open head chunk, time-window queries over sealed
// chunks, and an ordered series-name index so cardinality scans behave
// like a real TSDB's series catalogue. All randomness is seeded, so a
// given workload against a given seed is fully reproducible.
package tssim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrNoSeries is returned by queries against a series that does not exist.
var ErrNoSeries = errors.New("tssim: no such series")

// DefaultChunkPoints is the sealed-chunk size when Options leaves it zero.
const DefaultChunkPoints = 256

// Options configures a DB.
type Options struct {
	// ChunkPoints is the number of points per sealed chunk; 0 means
	// DefaultChunkPoints.
	ChunkPoints int
	// Seed fixes the series-name index's skiplist tower heights so runs
	// are reproducible.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.ChunkPoints <= 0 {
		o.ChunkPoints = DefaultChunkPoints
	}
	return o
}

// Point is one sample of a series.
type Point struct {
	TS    int64
	Value float64
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Series is the current cardinality (number of distinct series).
	Series int
	// Points is the total number of stored samples.
	Points int64
	// Appends counts Append calls; OutOfOrder counts the subset that
	// arrived behind the series' newest timestamp.
	Appends    int64
	OutOfOrder int64
	// Windows counts Window queries; WindowPoints the samples they
	// returned.
	Windows      int64
	WindowPoints int64
	// ChunksSealed counts head chunks frozen into the sealed sequence.
	ChunksSealed int64
}

type counters struct {
	points       atomic.Int64
	appends      atomic.Int64
	outOfOrder   atomic.Int64
	windows      atomic.Int64
	windowPoints atomic.Int64
	chunksSealed atomic.Int64
}

// chunk is an immutable, time-sorted run of points. Sealed chunks never
// change, so window queries read them without the series lock held for
// anything but the slice header.
type chunk struct {
	pts        []Point
	minTS, max int64
}

// Series is one named time series: a sequence of sealed chunks plus an
// open head chunk that absorbs appends.
type Series struct {
	mu     sync.RWMutex
	cp     int
	sealed []*chunk
	head   []Point
	// dirty marks the head as out-of-order; it is sorted at seal time
	// (and copied+sorted for queries), keeping the append path O(1).
	dirty bool
	maxTS int64
	any   bool
	cnt   *counters
}

// DB is the store: a series catalogue plus per-series storage.
type DB struct {
	mu     sync.RWMutex
	opts   Options
	series map[string]*Series
	names  *skiplist
	cnt    counters
}

// NewDB opens an empty store.
func NewDB(opts Options) *DB {
	opts = opts.withDefaults()
	return &DB{
		opts:   opts,
		series: make(map[string]*Series),
		names:  newSkiplist(opts.Seed),
	}
}

// getOrCreate returns the named series, creating it on first reference —
// append-driven series creation is how a TSDB's cardinality grows.
func (db *DB) getOrCreate(name string) *Series {
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s != nil {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if s = db.series[name]; s != nil {
		return s
	}
	s = &Series{cp: db.opts.ChunkPoints, cnt: &db.cnt}
	db.series[name] = s
	db.names.insert(name)
	return s
}

// get returns the named series or nil.
func (db *DB) get(name string) *Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.series[name]
}

// Append adds one sample to the named series, creating the series if it
// does not exist yet.
func (db *DB) Append(name string, ts int64, value float64) {
	db.getOrCreate(name).append(ts, value)
}

// Window returns the samples of the named series with from <= TS <= to,
// in ascending timestamp order.
func (db *DB) Window(name string, from, to int64) ([]Point, error) {
	s := db.get(name)
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSeries, name)
	}
	pts := s.window(from, to)
	db.cnt.windows.Add(1)
	db.cnt.windowPoints.Add(int64(len(pts)))
	return pts, nil
}

// Latest returns the newest sample of the named series.
func (db *DB) Latest(name string) (Point, error) {
	s := db.get(name)
	if s == nil {
		return Point{}, fmt.Errorf("%w: %q", ErrNoSeries, name)
	}
	p, ok := s.latest()
	if !ok {
		return Point{}, fmt.Errorf("%w: %q is empty", ErrNoSeries, name)
	}
	return p, nil
}

// SeriesNames returns up to limit series names >= start in ascending
// order — the catalogue scan a TSDB runs for metric discovery.
func (db *DB) SeriesNames(start string, limit int) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.names.from(start, limit)
}

// NumSeries returns the current cardinality.
func (db *DB) NumSeries() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.series)
}

// Stats snapshots the engine counters.
func (db *DB) Stats() Stats {
	return Stats{
		Series:       db.NumSeries(),
		Points:       db.cnt.points.Load(),
		Appends:      db.cnt.appends.Load(),
		OutOfOrder:   db.cnt.outOfOrder.Load(),
		Windows:      db.cnt.windows.Load(),
		WindowPoints: db.cnt.windowPoints.Load(),
		ChunksSealed: db.cnt.chunksSealed.Load(),
	}
}

func (s *Series) append(ts int64, value float64) {
	s.mu.Lock()
	if s.any && ts < s.maxTS {
		// Out-of-order arrival: tolerated inside the open head, sorted
		// away when the head seals. Samples older than the head's span
		// still land here — a real TSDB would reject or re-open a chunk;
		// the simulation keeps them and counts the disorder.
		s.dirty = true
		s.cnt.outOfOrder.Add(1)
	} else {
		s.maxTS = ts
		s.any = true
	}
	s.head = append(s.head, Point{TS: ts, Value: value})
	if len(s.head) >= s.cp {
		s.seal()
	}
	s.mu.Unlock()
	s.cnt.appends.Add(1)
	s.cnt.points.Add(1)
}

// seal freezes the head into an immutable sorted chunk. Caller holds mu.
func (s *Series) seal() {
	pts := s.head
	if s.dirty {
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].TS < pts[j].TS })
	}
	s.sealed = append(s.sealed, &chunk{
		pts:   pts,
		minTS: pts[0].TS,
		max:   pts[len(pts)-1].TS,
	})
	s.head = make([]Point, 0, s.cp)
	s.dirty = false
	s.cnt.chunksSealed.Add(1)
}

func (s *Series) window(from, to int64) []Point {
	s.mu.RLock()
	sealed := s.sealed
	head := s.head
	dirty := s.dirty
	if len(head) > 0 {
		head = append([]Point(nil), head...)
	}
	s.mu.RUnlock()

	var out []Point
	for _, c := range sealed {
		if c.max < from || c.minTS > to {
			continue
		}
		// Chunks are sorted: binary-search the window's edges.
		lo := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].TS >= from })
		hi := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].TS > to })
		out = append(out, c.pts[lo:hi]...)
	}
	if dirty {
		sort.SliceStable(head, func(i, j int) bool { return head[i].TS < head[j].TS })
	}
	for _, p := range head {
		if p.TS >= from && p.TS <= to {
			out = append(out, p)
		}
	}
	// Out-of-order head samples may time-travel behind sealed chunks;
	// a final stable sort keeps the contract simple for callers.
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].TS < out[j].TS }) {
		sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	}
	return out
}

func (s *Series) latest() (Point, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.any {
		return Point{}, false
	}
	// The newest timestamp is maxTS; it lives in the head unless the
	// head just sealed (or the newest head sample is older than a
	// sealed one after out-of-order arrivals).
	for i := len(s.head) - 1; i >= 0; i-- {
		if s.head[i].TS == s.maxTS {
			return s.head[i], true
		}
	}
	for i := len(s.sealed) - 1; i >= 0; i-- {
		c := s.sealed[i]
		if c.max != s.maxTS {
			continue
		}
		for j := len(c.pts) - 1; j >= 0; j-- {
			if c.pts[j].TS == s.maxTS {
				return c.pts[j], true
			}
		}
	}
	return Point{}, false
}

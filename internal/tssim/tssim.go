// Package tssim implements an in-process append-optimized time-series
// store, the second system-under-evaluation family beside mongosim. Like
// mongosim it is a deliberately simple but honest simulation: per-series
// chunked storage with an in-order append fast path, out-of-order
// tolerance inside the open head chunk, time-window queries over sealed
// chunks, and an ordered series-name index so cardinality scans behave
// like a real TSDB's series catalogue. All randomness is seeded, so a
// given workload against a given seed is fully reproducible.
//
// Two kinds of lock split the store. The DB's catalogue lock guards the
// name map and the name index: a by-name call takes it to find its
// series, and creating a series takes it exclusively. Each Series' own
// mutex guards its head, its sealed-chunk list and its counters. A
// caller holding a *Series handle (DB.Series) appends and queries
// through it without touching the catalogue, so clients working on
// different series write no memory in common. DB.Stats sums the
// per-series counters.
package tssim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"chronos/internal/skiplist"
)

// ErrNoSeries is returned by queries against a series that does not exist.
var ErrNoSeries = errors.New("tssim: no such series")

// DefaultChunkPoints is the number of points per sealed chunk.
const DefaultChunkPoints = 256

// Options configures a DB. The seed is its only setting: every
// evaluation runs the store at DefaultChunkPoints.
type Options struct {
	// Seed fixes the series-name index's skiplist tower heights so runs
	// are reproducible.
	Seed int64
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
	// Points is the total number of stored samples: every append stores
	// one, so it equals Appends.
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

// chunk is an immutable, time-sorted run of points. Sealed chunks never
// change, so window queries read them without the series lock held for
// anything but the slice header.
type chunk struct {
	pts        []Point
	minTS, max int64
}

// Series is one named time series: a sequence of sealed chunks plus an
// open head chunk that absorbs appends. A *Series is a handle: it stays
// valid for the DB's life, and its methods take only the series' own
// mutex, never the catalogue lock.
type Series struct {
	name string

	mu     sync.Mutex
	sealed []*chunk
	head   []Point
	// dirty marks the head as out-of-order; it is sorted at seal time,
	// keeping the append path O(1). A query copies only the head samples
	// inside its window and stable-sorts those.
	dirty bool
	any   bool
	maxTS int64
	// The append counters are guarded by mu.
	appends, outOfOrder, chunksSealed int64

	// The window counters are atomic: a window counts the samples it
	// returns after releasing mu.
	windows, windowPoints atomic.Int64
}

// DB is the store: a series catalogue plus per-series storage.
type DB struct {
	mu     sync.RWMutex
	series map[string]*Series
	names  *skiplist.List
}

// NewDB opens an empty store.
func NewDB(opts Options) *DB {
	return &DB{
		series: make(map[string]*Series),
		names:  skiplist.New(opts.Seed),
	}
}

// Series returns the named series, creating it on first reference —
// append-driven series creation is how a TSDB's cardinality grows. Calls
// through the handle skip the catalogue.
func (db *DB) Series(name string) *Series {
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
	s = &Series{name: name}
	db.series[name] = s
	db.names.Insert(name)
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
	db.Series(name).Append(ts, value)
}

// Window returns the samples of the named series with from <= TS <= to,
// in ascending timestamp order.
func (db *DB) Window(name string, from, to int64) ([]Point, error) {
	s := db.get(name)
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSeries, name)
	}
	return s.Window(from, to), nil
}

// Latest returns the newest sample of the named series.
func (db *DB) Latest(name string) (Point, error) {
	s := db.get(name)
	if s == nil {
		return Point{}, fmt.Errorf("%w: %q", ErrNoSeries, name)
	}
	p, ok := s.Latest()
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
	return db.names.From(start, limit)
}

// NumSeries returns the current cardinality.
func (db *DB) NumSeries() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.series)
}

// Stats sums the per-series counters under the catalogue lock. It is
// exact once the calls it should count have returned.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := Stats{Series: len(db.series)}
	for _, s := range db.series {
		s.mu.Lock()
		st.Appends += s.appends
		st.OutOfOrder += s.outOfOrder
		st.ChunksSealed += s.chunksSealed
		s.mu.Unlock()
		st.Windows += s.windows.Load()
		st.WindowPoints += s.windowPoints.Load()
	}
	st.Points = st.Appends
	return st
}

// Name returns the series' name.
func (s *Series) Name() string { return s.name }

// Append adds one sample to the series.
func (s *Series) Append(ts int64, value float64) {
	s.mu.Lock()
	if s.any && ts < s.maxTS {
		// Out-of-order arrival: tolerated inside the open head, sorted
		// away when the head seals. Samples older than the head's span
		// still land here — a real TSDB would reject or re-open a chunk;
		// the simulation keeps them and counts the disorder.
		s.dirty = true
		s.outOfOrder++
	} else {
		s.maxTS = ts
		s.any = true
	}
	s.head = append(s.head, Point{TS: ts, Value: value})
	if len(s.head) >= DefaultChunkPoints {
		s.seal()
	}
	s.appends++
	s.mu.Unlock()
}

// seal freezes the head into an immutable sorted chunk. Caller holds mu.
func (s *Series) seal() {
	pts := s.head
	if s.dirty {
		slices.SortStableFunc(pts, byTS)
	}
	s.sealed = append(s.sealed, &chunk{
		pts:   pts,
		minTS: pts[0].TS,
		max:   pts[len(pts)-1].TS,
	})
	s.head = make([]Point, 0, DefaultChunkPoints)
	s.dirty = false
	s.chunksSealed++
}

// Window returns the series' samples with from <= TS <= to, in ascending
// timestamp order. It holds mu only to copy the head samples in its span;
// the sealed chunks are read after releasing it.
func (s *Series) Window(from, to int64) []Point {
	s.mu.Lock()
	sealed := s.sealed
	head := s.headWindow(from, to)
	s.mu.Unlock()

	var out []Point
	for _, c := range sealed {
		if c.max < from || c.minTS > to {
			continue
		}
		lo, hi := span(c.pts, from, to)
		out = append(out, c.pts[lo:hi]...)
	}
	if len(out) == 0 {
		out = head
	} else {
		out = append(out, head...)
		// Out-of-order head samples may time-travel behind sealed chunks;
		// a final stable sort keeps the contract simple for callers.
		if !slices.IsSortedFunc(out, byTS) {
			slices.SortStableFunc(out, byTS)
		}
	}
	s.windows.Add(1)
	s.windowPoints.Add(int64(len(out)))
	return out
}

// headWindow copies the head samples with from <= TS <= to, in stable
// timestamp order: the filter of the stably sorted head, without
// copying or sorting the samples outside the window. Caller holds mu.
func (s *Series) headWindow(from, to int64) []Point {
	if !s.dirty {
		lo, hi := span(s.head, from, to)
		return append([]Point(nil), s.head[lo:hi]...)
	}
	var pts []Point
	for _, p := range s.head {
		if p.TS >= from && p.TS <= to {
			pts = append(pts, p)
		}
	}
	slices.SortStableFunc(pts, byTS)
	return pts
}

// span binary-searches the edges of [from, to] in time-sorted pts. The
// upper edge is searched from the lower one, so a reversed window is an
// empty span.
func span(pts []Point, from, to int64) (lo, hi int) {
	lo = sort.Search(len(pts), func(i int) bool { return pts[i].TS >= from })
	hi = lo + sort.Search(len(pts)-lo, func(i int) bool { return pts[lo+i].TS > to })
	return lo, hi
}

func byTS(a, b Point) int { return cmp.Compare(a.TS, b.TS) }

// Latest returns the series' newest sample; ok is false while the series
// is empty.
func (s *Series) Latest() (p Point, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
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

package tssim

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

// refStore is the naive reference model: a map of unsorted point slices,
// sorted on every query. The chunked engine must agree with it on every
// window and latest query — the same conformance idiom the mongosim
// engine tests use against their map-based reference.
type refStore struct {
	series map[string][]Point
}

func newRef() *refStore { return &refStore{series: map[string][]Point{}} }

func (r *refStore) append(name string, ts int64, v float64) {
	r.series[name] = append(r.series[name], Point{TS: ts, Value: v})
}

func (r *refStore) window(name string, from, to int64) []Point {
	var out []Point
	for _, p := range r.series[name] {
		if p.TS >= from && p.TS <= to {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

func (r *refStore) latest(name string) (Point, bool) {
	pts := r.series[name]
	if len(pts) == 0 {
		return Point{}, false
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.TS >= best.TS {
			best = p
		}
	}
	return best, true
}

func TestAppendWindowConformance(t *testing.T) {
	// Enough samples for every series to seal many chunks, and windows
	// wide enough that most span a chunk boundary.
	db := NewDB(Options{Seed: 1})
	ref := newRef()
	rng := rand.New(rand.NewPCG(42, 0))

	names := make([]string, 5)
	for i := range names {
		names[i] = fmt.Sprintf("sensor%09d", i)
	}
	// Spans scale with the chunk: a series takes about one clock tick in
	// len(names), so a window covers up to 1.5 chunks of its series and a
	// late sample falls up to half a chunk behind.
	const samples = 40000
	span := int64(DefaultChunkPoints * len(names))
	var clock int64
	for i := 0; i < samples; i++ {
		name := names[rng.IntN(len(names))]
		clock++
		ts := clock
		if rng.IntN(10) == 0 {
			// One in ten samples arrives late.
			ts -= rng.Int64N(span/2) + 1
		}
		v := float64(i)
		db.Append(name, ts, v)
		ref.append(name, ts, v)

		if i%37 == 0 {
			from := clock - rng.Int64N(2*span)
			to := from + rng.Int64N(span*3/2)
			got, err := db.Window(name, from, to)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.window(name, from, to)
			if !samePoints(got, want) {
				t.Fatalf("window(%s, %d, %d): got %v want %v", name, from, to, got, want)
			}
		}
	}
	// Full-range windows and latest must agree per series.
	for _, name := range names {
		got, err := db.Window(name, 0, clock+1)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.window(name, 0, clock+1)
		if !samePoints(got, want) {
			t.Fatalf("full window %s: %d pts vs %d", name, len(got), len(want))
		}
		lp, err := db.Latest(name)
		if err != nil {
			t.Fatal(err)
		}
		if wp, _ := ref.latest(name); lp.TS != wp.TS {
			t.Fatalf("latest %s: ts %d want %d", name, lp.TS, wp.TS)
		}
	}
	st := db.Stats()
	if st.Series != len(names) || st.Points != samples || st.Appends != samples {
		t.Fatalf("stats = %+v", st)
	}
	if st.OutOfOrder == 0 || st.ChunksSealed == 0 || st.Windows == 0 {
		t.Fatalf("counters did not move: %+v", st)
	}
}

// TestWindowDigest pins every window's answer bit for bit, tie order
// included, which samePoints forgives: a SHA-256 over each returned
// sample's (TS, Value), in returned order, after each window's length.
// The seeded run shares timestamps between samples and, on two of its
// three series, delivers late samples, so windows cross sealed chunks and
// both sorted and out-of-order heads. The constant was taken before
// window stopped copying the whole head, so a window that returns other
// samples, or equal timestamps in another order, fails here.
func TestWindowDigest(t *testing.T) {
	const want = "bcf7e2159232665cf48089edf1b8bd53e643439d7a60f9965cf110b365d96214"
	db := NewDB(Options{Seed: 3})
	rng := rand.New(rand.NewPCG(611, 0))
	names := []string{"late0", "late1", "inorder"}
	span := int64(DefaultChunkPoints * len(names))
	h := sha256.New()
	var b [16]byte
	hash := func(pts []Point) {
		binary.LittleEndian.PutUint64(b[:8], uint64(len(pts)))
		h.Write(b[:8])
		for _, p := range pts {
			binary.LittleEndian.PutUint64(b[:8], uint64(p.TS))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Value))
			h.Write(b[:])
		}
	}
	window := func(name string, from, to int64) {
		pts, err := db.Window(name, from, to)
		if err != nil {
			t.Fatal(err)
		}
		hash(pts)
	}
	for k, name := range names {
		db.Append(name, 0, float64(-1-k))
	}
	var clock int64
	for i := 0; i < 30000; i++ {
		n := rng.IntN(len(names))
		if rng.IntN(4) != 0 {
			// One in four samples shares its predecessor's timestamp.
			clock++
		}
		ts := clock
		if n < 2 && rng.IntN(8) == 0 {
			ts -= rng.Int64N(span/2) + 1
		}
		db.Append(names[n], ts, float64(i))
		if i%11 == 0 {
			from := clock - rng.Int64N(2*span)
			window(names[rng.IntN(len(names))], from, from+rng.Int64N(span*3/2))
		}
	}
	for _, name := range names {
		window(name, 0, clock)
	}
	if st := db.Stats(); st.OutOfOrder == 0 || st.ChunksSealed == 0 {
		t.Fatalf("the run exercised no late samples or seals: %+v", st)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("digest of %d windows = %s, want %s", db.Stats().Windows, got, want)
	}
}

// samePoints compares timestamp sequences and the multiset of values per
// timestamp (ties may legally order differently between engine and ref).
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	va, vb := map[int64][]float64{}, map[int64][]float64{}
	for i := range a {
		if a[i].TS != b[i].TS {
			return false
		}
		va[a[i].TS] = append(va[a[i].TS], a[i].Value)
		vb[b[i].TS] = append(vb[b[i].TS], b[i].Value)
	}
	for ts, xs := range va {
		ys := vb[ts]
		sort.Float64s(xs)
		sort.Float64s(ys)
		for i := range xs {
			if xs[i] != ys[i] {
				return false
			}
		}
	}
	return true
}

func TestInOrderFastPath(t *testing.T) {
	db := NewDB(Options{Seed: 1})
	const n = 2*DefaultChunkPoints + DefaultChunkPoints/2
	for i := int64(1); i <= n; i++ {
		db.Append("s", i, float64(i))
	}
	st := db.Stats()
	if st.OutOfOrder != 0 {
		t.Fatalf("in-order appends counted as out-of-order: %+v", st)
	}
	if st.ChunksSealed != 2 {
		t.Fatalf("chunks sealed = %d, want 2", st.ChunksSealed)
	}
	// A window across both seals, into the head.
	from, to := int64(DefaultChunkPoints-2), int64(2*DefaultChunkPoints+3)
	pts, err := db.Window("s", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != int(to-from+1) || pts[0].TS != from || pts[len(pts)-1].TS != to {
		t.Fatalf("window = %v", pts)
	}
	for i, p := range pts {
		if p.TS != from+int64(i) {
			t.Fatalf("window[%d] = %v", i, p)
		}
	}
	// A reversed window is empty, inside a sealed chunk and the head alike.
	for _, w := range [][2]int64{{200, 100}, {n - 10, n - 50}} {
		if pts, err := db.Window("s", w[0], w[1]); err != nil || len(pts) != 0 {
			t.Fatalf("reversed window %v = %v, %v", w, pts, err)
		}
	}
	if p, _ := db.Latest("s"); p.TS != n || p.Value != n {
		t.Fatalf("latest = %v", p)
	}
}

func TestMissingSeries(t *testing.T) {
	db := NewDB(Options{})
	if _, err := db.Window("nope", 0, 1); !errors.Is(err, ErrNoSeries) {
		t.Fatalf("window err = %v", err)
	}
	if _, err := db.Latest("nope"); !errors.Is(err, ErrNoSeries) {
		t.Fatalf("latest err = %v", err)
	}
}

func TestSeriesNamesOrdered(t *testing.T) {
	db := NewDB(Options{Seed: 7})
	for _, n := range []string{"cpu", "mem", "disk", "net", "cpu"} {
		db.Append(n, 1, 0)
	}
	if got := db.NumSeries(); got != 4 {
		t.Fatalf("cardinality = %d", got)
	}
	names := db.SeriesNames("", 10)
	want := []string{"cpu", "disk", "mem", "net"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	if got := db.SeriesNames("disk", 2); len(got) != 2 || got[0] != "disk" || got[1] != "mem" {
		t.Fatalf("paged names = %v", got)
	}
}

func TestConcurrentAppendsAndWindows(t *testing.T) {
	db := NewDB(Options{Seed: 9})
	var wg sync.WaitGroup
	const workers, perWorker = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("sensor%09d", rng.IntN(6))
				db.Append(name, int64(w*perWorker+i), float64(i))
				if i%25 == 0 {
					db.Window(name, 0, int64(workers*perWorker))
					db.Latest(name)
					db.SeriesNames("", 10)
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.Stats()
	if st.Points != workers*perWorker {
		t.Fatalf("points = %d", st.Points)
	}
	// Every stored point is visible through a full-range window.
	var total int
	for _, name := range db.SeriesNames("", 100) {
		pts, err := db.Window(name, 0, int64(workers*perWorker))
		if err != nil {
			t.Fatal(err)
		}
		total += len(pts)
	}
	if total != workers*perWorker {
		t.Fatalf("windows returned %d points", total)
	}
}

// TestCountersStayExact: the per-series counters sum to exact totals
// while goroutines append and window over shared series, half of them
// through handles and half by name.
func TestCountersStayExact(t *testing.T) {
	db := NewDB(Options{Seed: 11})
	names := []string{"a", "b", "c", "d", "e"}
	const workers, perWorker = 8, 3000
	var (
		wg           sync.WaitGroup
		mu           sync.Mutex
		windows      int64
		windowPoints int64
		appended     = make([]int64, len(names))
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 2))
			var handles []*Series
			if w%2 == 0 {
				for _, n := range names {
					handles = append(handles, db.Series(n))
				}
			}
			var wins, winPts int64
			counts := make([]int64, len(names))
			for i := 0; i < perWorker; i++ {
				k := rng.IntN(len(names))
				ts := int64(i*workers + w)
				if rng.IntN(10) == 0 {
					from := ts - rng.Int64N(2*DefaultChunkPoints)
					var pts []Point
					if handles != nil {
						pts = handles[k].Window(from, ts)
					} else {
						var err error
						if pts, err = db.Window(names[k], from, ts); errors.Is(err, ErrNoSeries) {
							continue
						} else if err != nil {
							t.Error(err)
							return
						}
					}
					wins++
					winPts += int64(len(pts))
					continue
				}
				if handles != nil {
					handles[k].Append(ts, float64(i))
				} else {
					db.Append(names[k], ts, float64(i))
				}
				counts[k]++
			}
			mu.Lock()
			windows += wins
			windowPoints += winPts
			for k, c := range counts {
				appended[k] += c
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	var appends, sealed int64
	for _, n := range appended {
		appends += n
		sealed += n / DefaultChunkPoints
	}
	st := db.Stats()
	if st.Appends != appends || st.Points != appends {
		t.Errorf("appends = %d, points = %d, want %d", st.Appends, st.Points, appends)
	}
	if st.Windows != windows || st.WindowPoints != windowPoints {
		t.Errorf("windows = %d returning %d points, want %d returning %d", st.Windows, st.WindowPoints, windows, windowPoints)
	}
	if st.ChunksSealed != sealed {
		t.Errorf("chunks sealed = %d, want %d", st.ChunksSealed, sealed)
	}
	if st.Series != len(names) {
		t.Errorf("series = %d, want %d", st.Series, len(names))
	}
	if st.OutOfOrder == 0 || windows == 0 || windowPoints == 0 {
		t.Fatalf("the run exercised no late samples or windows: %+v", st)
	}
}

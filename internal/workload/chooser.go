// Package workload generates benchmark workloads for database
// evaluations: keyed records, skewed key-access distributions and
// read/write operation mixes in the style of YCSB (Cooper et al., SoCC
// 2010), which the paper cites as the canonical cloud-serving benchmark.
//
// The Chronos MongoDB demo drives its two storage-engine deployments with
// these workloads; the generators are deterministic given a seed so that
// evaluation runs are reproducible.
//
// Beyond static mixes, the package models *dynamic* workloads: a
// Schedule is an ordered list of Phases, each with its own Mix, key
// distribution, arrival-rate curve and dataset-growth knob, bounded by
// an op count or a wall duration (see schedule.go for the engine and
// the textual phase DSL). A static Config is the one-phase degenerate
// case of a Schedule, and RunSchedule is the shared multi-threaded run
// loop every SUT agent drives its engine with.
//
// The engine is the instrument, so what it spends per operation is kept
// to its bookkeeping: one draw for the type, one for the key, a clock read
// on each side of apply and one record into the histogram of the
// operation's type, from which phase and run totals are merged at the end.
// It allocates nothing per operation: Op carries the key's index and
// Op.Key formats the key string only for an adapter that asks (tsagent
// names its series from the index and never does). The choosers keep
// their draws to arithmetic: Zipfian's constants are computed in its
// constructor and the scramble hashes FNV-1a inline.
//
// Payloads cost a draw per value: each generator owns one pool of
// run-structured text (64 KiB plus one field length, built from its own
// seeded stream on the first payload it draws) and a value is a
// FieldLength-long window into it at a drawn offset; Op.Fields is a
// prefix of the generator's one field buffer. The contract that buys this:
// a payload — the Fields slice and every Value in it — is read-only and
// valid only until apply returns. An adapter that hands a payload to
// something that keeps it copies it first (mongoagent builds its Document
// of strings; tsagent's store takes no payload at all). BenchmarkEngineOverhead
// reports the cost per operation type, TestEngineAllocsPerOp holds the
// allocation count at zero, TestChooserDigests every distribution's draws
// and TestSeededStreamGolden the exact bytes of a seeded stream.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
)

// KeyChooser selects which record a request touches. Implementations are
// NOT safe for concurrent use unless stated; give each worker goroutine
// its own chooser with its own rand source (standard YCSB practice) —
// nothing here touches the process-global generator, so seeded runs
// replay exactly.
type KeyChooser interface {
	// Next returns a record index in [0, n) where n is the chooser's
	// current item count.
	Next(r *rand.Rand) int64
}

// Uniform chooses keys uniformly at random.
type Uniform struct {
	n int64
}

// NewUniform returns a uniform chooser over n items.
func NewUniform(n int64) *Uniform {
	if n <= 0 {
		panic(fmt.Sprintf("workload: uniform over %d items", n))
	}
	return &Uniform{n: n}
}

// Next implements KeyChooser.
func (u *Uniform) Next(r *rand.Rand) int64 { return r.Int64N(u.n) }

// ZipfianTheta is the canonical YCSB skew constant.
const ZipfianTheta = 0.99

// Zipfian chooses keys with a Zipfian distribution: item 0 is the most
// popular, following the algorithm of Gray et al. ("Quickly generating
// billion-record synthetic databases", SIGMOD 1994) as used by YCSB.
// Everything but the draw is computed once, in the constructor.
type Zipfian struct {
	items int64
	alpha float64
	zetan float64
	eta   float64
	// second is 1 + 0.5^theta: a draw whose u*zetan falls below it is
	// item 1.
	second float64
}

// NewZipfian returns a Zipfian chooser over n items with the standard
// theta = 0.99 skew.
func NewZipfian(n int64) *Zipfian { return NewZipfianTheta(n, ZipfianTheta) }

// NewZipfianTheta returns a Zipfian chooser with explicit skew theta in
// (0, 1).
func NewZipfianTheta(n int64, theta float64) *Zipfian {
	if n <= 0 {
		panic(fmt.Sprintf("workload: zipfian over %d items", n))
	}
	zeta2theta := zetaStatic(2, theta)
	zetan := zetaStatic(n, theta)
	return &Zipfian{
		items:  n,
		alpha:  1.0 / (1.0 - theta),
		zetan:  zetan,
		eta:    (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2theta/zetan),
		second: 1.0 + math.Pow(0.5, theta),
	}
}

// zetaStatic computes the zeta(n, theta) normalisation constant.
func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements KeyChooser.
func (z *Zipfian) Next(r *rand.Rand) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	return int64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// ScrambledZipfian spreads the Zipfian popularity mass over the whole key
// space by hashing, so hot items are not clustered at low indexes. This is
// YCSB's default request distribution.
type ScrambledZipfian struct {
	z     *Zipfian
	items int64
}

// NewScrambledZipfian returns a scrambled Zipfian chooser over n items.
func NewScrambledZipfian(n int64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(n), items: n}
}

// Next implements KeyChooser.
func (s *ScrambledZipfian) Next(r *rand.Rand) int64 {
	raw := s.z.Next(r)
	return int64(fnvHash64(uint64(raw)) % uint64(s.items))
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvHash64 hashes the eight little-endian bytes of v with FNV-1a, byte
// for byte hash/fnv's New64a without the interface and the buffer.
func fnvHash64(v uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Latest skews towards recently inserted records: the newest record is
// the most popular (YCSB workload D's distribution). Safe for concurrent
// use; the record count advances as workers insert.
type Latest struct {
	mu sync.Mutex
	z  *Zipfian
	n  int64
}

// NewLatest returns a Latest chooser over an initial n items.
func NewLatest(n int64) *Latest {
	if n <= 0 {
		panic(fmt.Sprintf("workload: latest over %d items", n))
	}
	return &Latest{z: NewZipfian(n), n: n}
}

// GrowTo raises the chooser's item count to at least n; lower values are
// ignored. Concurrent workers each report their own insert high-water
// mark and the chooser converges on the global maximum of *distinct*
// keys, instead of double-counting one insert per worker.
func (l *Latest) GrowTo(n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= l.n {
		return
	}
	l.n = n
	// Rebuild lazily in powers of two to avoid O(n) zeta on every insert.
	if l.n >= 2*l.z.items {
		l.z = NewZipfian(l.n)
	}
}

// Next implements KeyChooser.
func (l *Latest) Next(r *rand.Rand) int64 {
	l.mu.Lock()
	n := l.n
	off := l.z.Next(r)
	l.mu.Unlock()
	k := n - 1 - off
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// Sequential walks the key space in order, wrapping around; used for
// loading phases. Safe for concurrent use.
type Sequential struct {
	mu   sync.Mutex
	next int64
	n    int64
}

// NewSequential returns a sequential chooser over n items.
func NewSequential(n int64) *Sequential {
	if n <= 0 {
		panic(fmt.Sprintf("workload: sequential over %d items", n))
	}
	return &Sequential{n: n}
}

// Next implements KeyChooser.
func (s *Sequential) Next(_ *rand.Rand) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.next
	s.next = (s.next + 1) % s.n
	return k
}

// choosers maps a distribution name to its constructor over n items.
var choosers = map[string]func(n int64) KeyChooser{
	"uniform":    func(n int64) KeyChooser { return NewUniform(n) },
	"zipfian":    func(n int64) KeyChooser { return NewScrambledZipfian(n) },
	"latest":     func(n int64) KeyChooser { return NewLatest(n) },
	"sequential": func(n int64) KeyChooser { return NewSequential(n) },
}

// NewChooser builds a chooser by distribution name: "uniform", "zipfian",
// "latest" or "sequential".
func NewChooser(distribution string, n int64) (KeyChooser, error) {
	if err := checkDistribution(distribution); err != nil {
		return nil, err
	}
	return choosers[distribution](n), nil
}

// checkDistribution refuses a name NewChooser does not know. Validation
// checks the name with it and builds nothing: a zipfian or latest chooser
// costs a zeta sum over the whole key domain.
func checkDistribution(distribution string) error {
	if choosers[distribution] == nil {
		return fmt.Errorf("workload: unknown distribution %q", distribution)
	}
	return nil
}

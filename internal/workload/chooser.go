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
// to its bookkeeping: one draw for the type, one for the key, one
// monotonic clock read and one record into the histogram of the
// operation's type, from which phase and run totals are merged at the end.
// A worker draws its operations 64 at a time (NextBatch) and then applies
// them back to back, so one operation's end read is the next one's start:
// a latency covers apply and the store of the previous latency, never a
// draw. A fresh read opens every batch and follows anything else the loop
// does between two applies — a pacing sleep, a progress report, an abort
// poll, a phase change. A phase bounded by wall time or paced to a rate
// draws one operation at a time.
// It allocates nothing per operation: Op carries the key's index and
// Op.Key formats the key string only for an adapter that asks (tsagent
// names its series from the index and never does). The choosers keep
// their draws to arithmetic and take no lock, since each belongs to one
// generator: Zipfian's constants are computed in its constructor, its
// θ = 0.99 draw squares its way to x^100 where math.Pow would spend an Exp
// and a Log (falling back to Pow only where the two could truncate to
// different keys), and the scramble hashes FNV-1a inline.
//
// Payloads cost a draw per value: each generator owns one pool of
// run-structured text (64 KiB plus one field length, built from its own
// seeded stream on the first payload it draws) and a value is a
// FieldLength-long window into it at a drawn offset; Op.Fields is a
// prefix of its op's record-sized slot in the generator's field arena.
// The contract that buys this: a payload — the Fields slice and every
// Value in it — is read-only and valid only until apply returns. An adapter that hands a payload to
// something that keeps it copies it first (mongoagent builds its Document
// of strings; tsagent's store takes no payload at all). BenchmarkEngineOverhead
// reports the cost per operation type, TestEngineAllocsPerOp holds the
// allocation count at zero, TestChooserDigests every distribution's draws,
// FuzzZipfianMatchesPow the squared draw to math.Pow's, TestSeededStreamGolden
// the exact bytes of a seeded stream and TestLatencyChargesApplyAlone what
// a latency covers.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// KeyChooser selects which record a request touches. Implementations are
// not safe for concurrent use: each worker's generator builds its own
// choosers and draws them from its own rand source (standard YCSB
// practice) — nothing here touches the process-global generator, so
// seeded runs replay exactly.
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
	// pow100 is set when x^alpha is x^100 to within the rounding of
	// math.Pow itself, so that Next can square its way there; see draw.
	pow100 bool
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
	return newZipfian(n, theta, zetaStatic(n, theta))
}

// newZipfian computes everything but zeta(n, theta) itself.
func newZipfian(n int64, theta, zetan float64) *Zipfian {
	zeta2theta := zetaStatic(2, theta)
	z := &Zipfian{
		items:  n,
		alpha:  1.0 / (1.0 - theta),
		zetan:  zetan,
		eta:    (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2theta/zetan),
		second: 1.0 + math.Pow(0.5, theta),
	}
	// For theta = 0.99, alpha is 99.99999999999991, and math.Pow(x, alpha)
	// is x^100 times Exp((alpha-100)·Log x). Every draw has x in
	// [1-eta, 1], so that factor is within |alpha-100|·|log(1-eta)| of 1:
	// about 1.6e-14 at 1e8 items, 3.6e-14 at 1e18. The squaring
	// chain may stand in for Pow only while the factor stays below
	// 1e-13; see draw for the margin that covers it.
	z.pow100 = math.Round(z.alpha) == 100 &&
		math.Abs(z.alpha-100)*math.Abs(math.Log1p(-z.eta)) <= 1e-13
	return z
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
	return z.draw(z.eta*u - z.eta + 1)
}

// pow100Margin is how close, relative to q, a key's q = items·x^100 may
// lie to an integer before draw asks math.Pow which side it falls on.
//
// The chain's x^64 carries at most 63 roundings of 2^-53 (each squaring
// doubles the error it inherits and adds one), x^32 31 and x^4 3; the two
// products and the scaling by items add three: at most 100·2^-53, about
// 1.1e-14, relative. math.Pow walks the same chain over x's mantissa
// (also about 1.1e-14) and scales by Exp(yf·Log x), a few ulps from the
// factor it approximates, and that factor is within 1e-13 of 1 whenever
// pow100 is set. So the two q differ by less than 1.5e-13·q, and a q
// farther than 1e-12·q from every integer truncates to the same key on
// both paths. The margin is relative because the error is: an absolute
// one fine at a thousand items is four orders of magnitude short at 1e8,
// where one ulp of q is 1.5e-8. A draw falls back with probability about
// 2e-12·q, 2e-4 at 1e8 items.
const pow100Margin = 1e-12

// draw maps x = eta·u - eta + 1 to a key: items·x^alpha truncated, the
// result of math.Pow bit for bit. With pow100 set it squares its way to
// x^100 in eight multiplications, where Pow spends an Exp and a Log, and
// asks Pow only about a q within the margin of an integer.
func (z *Zipfian) draw(x float64) int64 {
	if z.pow100 {
		x2 := x * x
		x4 := x2 * x2
		x8 := x4 * x4
		x16 := x8 * x8
		x32 := x16 * x16
		x64 := x32 * x32
		q := float64(z.items) * (x64 * x32 * x4)
		// A NaN q fails both comparisons and takes Pow's answer.
		if f, m := q-float64(int64(q)), pow100Margin*q; f > m && f < 1-m {
			return int64(q)
		}
	}
	return int64(float64(z.items) * math.Pow(x, z.alpha))
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
// the most popular (YCSB workload D's distribution). Like every chooser it
// belongs to one generator, which raises its record count as it inserts.
type Latest struct {
	z *Zipfian
	n int64
}

// NewLatest returns a Latest chooser over an initial n items.
func NewLatest(n int64) *Latest {
	if n <= 0 {
		panic(fmt.Sprintf("workload: latest over %d items", n))
	}
	return &Latest{z: NewZipfian(n), n: n}
}

// GrowTo raises the chooser's item count to at least n; lower values are
// ignored, so a generator reports its insert high-water mark and the
// count never moves backwards.
func (l *Latest) GrowTo(n int64) {
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
	k := l.n - 1 - l.z.Next(r)
	if k < 0 {
		k = 0
	}
	if k >= l.n {
		k = l.n - 1
	}
	return k
}

// Sequential walks the key space in order, wrapping around; used for
// loading phases. Like every chooser it belongs to one generator.
type Sequential struct {
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

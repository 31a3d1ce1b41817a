// Package metrics provides the standard measurements the Chronos Agent
// library records during an evaluation run (paper §2.2: "the agent library
// already measures basic metrics which are returned to Chronos Control
// along with the results"): latency histograms with quantiles and the
// per-phase durations a job result carries.
//
// The histogram is a log-bucketed (HDR-style) structure: values are placed
// into buckets whose width grows exponentially, giving a bounded relative
// error (~3%) over the full int64 range at a fixed memory footprint.
//
// The same histogram also backs the server-side observability Registry
// (registry.go): a concurrency-safe collection of counters, gauges and
// summary histograms with optional labels that the Chronos Control server
// uses to instrument its own hot paths — relstore commits, WAL fsyncs,
// compaction, replication lag, the claim fan-out path and REST routes.
// The registry renders the Prometheus text exposition format and is
// served at GET /metrics by internal/rest; instrumentation handles are
// resolved once at wiring time, so recording on a hot path costs a few
// atomic adds (counters, gauges and summaries alike — no locks).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

const (
	// subBucketBits fixes the number of linear sub-buckets per power of
	// two: 32 sub-buckets bound the relative quantile error at 1/32.
	subBucketBits = 5
	subBuckets    = 1 << subBucketBits
	// bucketCount covers the whole non-negative int64 range.
	bucketCount = 64 * subBuckets
)

// Histogram is a log-bucketed value recorder. The zero value is ready to
// use. Histogram is not safe for concurrent use: record into one per
// worker and Merge them.
type Histogram struct {
	counts [bucketCount]uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// The top subBucketBits bits below the leading one select the linear
	// sub-bucket; the exponent selects the bucket group.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int((uint64(v) >> (uint(exp) - subBucketBits)) & (subBuckets - 1))
	return (exp-subBucketBits+1)*subBuckets + sub
}

// bucketUpperBound returns the largest value mapping to bucket i; used as
// the reported quantile estimate.
func bucketUpperBound(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	group := i/subBuckets - 1
	sub := i % subBuckets
	exp := uint(group + subBucketBits)
	base := int64(1) << exp
	width := int64(1) << (exp - subBucketBits)
	return base + int64(sub+1)*width - 1
}

// Record adds a single value to the histogram. Negative values clamp to
// zero (latencies cannot be negative; clock retrogression should not
// poison the distribution).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest recorded value, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of recorded values, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns an upper-bound estimate of the q-quantile, q in [0,1].
// Out-of-range q values clamp. The estimate never exceeds Max and never
// undercuts Min.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			ub := bucketUpperBound(i)
			if ub > h.max {
				ub = h.max
			}
			if ub < h.min {
				ub = h.min
			}
			return ub
		}
	}
	return h.max
}

// Merge adds all samples of o into h, exactly: counts add, min and max
// compare, and sum is a float64 of integer values, which adds without
// rounding while it stays below 2^53 (104 days of nanoseconds). Merging
// per-part histograms therefore gives the histogram, mean included, of
// recording every value into one.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

// Snapshot summarises the histogram into a serialisable form.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.total,
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// Snapshot is a point-in-time summary of a histogram. All values carry the
// unit of the recorded samples (nanoseconds for latencies).
type Snapshot struct {
	Count uint64  `json:"count"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
}

// Micros renders nanoseconds as fractional microseconds, the unit result
// documents report latencies in: a whole-number division reads a
// sub-microsecond SUT's percentiles as zero.
func Micros(ns int64) float64 { return float64(ns) / 1000 }

// String renders the snapshot with durations in human units.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count,
		time.Duration(s.Mean).Round(time.Microsecond),
		time.Duration(s.P50).Round(time.Microsecond),
		time.Duration(s.P95).Round(time.Microsecond),
		time.Duration(s.P99).Round(time.Microsecond),
		time.Duration(s.Max).Round(time.Microsecond))
}

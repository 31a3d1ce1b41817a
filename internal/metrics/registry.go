package metrics

// The server-side metrics registry. Agents ship Measurements home as
// results; the Chronos server itself publishes its runtime health through
// a Registry — counters, gauges and summary histograms with optional
// labels — rendered in the Prometheus text exposition format by
// WritePrometheus and served at GET /metrics (see internal/rest).
//
// The registry is built for hot paths: instrumentation sites resolve
// their handle (*Counter, *Gauge, *Summary) once at wiring time and pay
// a handful of uncontended atomic adds per event — no locks on the
// record path. Registration is idempotent — asking for an existing name
// returns the same handle — so independent subsystems can share a
// registry without coordination.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// familyKind is the exposition TYPE of a metric family.
type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindSummary
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// Counter is a monotonically increasing value. The zero value is ready;
// handles from Registry.Counter are shared and safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay meaningful).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Summary is a distribution tracked by the package's log-bucketed
// histogram, exposed as Prometheus summary quantiles (~3% relative
// error). Values are recorded as int64 in the instrumentation site's
// natural unit (nanoseconds, records, bytes); the family's scale factor
// converts them at exposition time (1e-9 turns nanoseconds into the
// seconds Prometheus conventions expect).
//
// Observe is lock-free: one atomic add into the value's bucket plus the
// sum, and CAS loops for min/max that in steady state are a single load
// (the extremes stop moving after warm-up). That keeps the commit hot
// path free of a mutex that every concurrent writer would serialise on.
type Summary struct {
	counts [bucketCount]atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64 // math.MaxInt64 until the first Observe
	max    atomic.Int64 // math.MinInt64 until the first Observe
}

func newSummary() *Summary {
	s := &Summary{}
	s.min.Store(math.MaxInt64)
	s.max.Store(math.MinInt64)
	return s
}

// Observe records one value. Negative values clamp to zero, matching
// Histogram.Record.
func (s *Summary) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	s.counts[bucketIndex(v)].Add(1)
	s.sum.Add(v)
	for {
		cur := s.min.Load()
		if v >= cur || s.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (s *Summary) ObserveDuration(d time.Duration) { s.Observe(d.Nanoseconds()) }

// snapshot assembles a quantile snapshot and the exact sum from the
// atomic buckets. Concurrent observes may straddle the reads — a sample
// can land in the bucket array after its neighbour was read — which
// skews a live scrape by at most the records in flight; totals are exact
// once writers quiesce.
func (s *Summary) snapshot() (Snapshot, int64) {
	var h Histogram
	for i := range s.counts {
		c := s.counts[i].Load()
		h.counts[i] = c
		h.total += c
	}
	sum := s.sum.Load()
	h.sum = float64(sum)
	if h.total > 0 {
		h.min = s.min.Load()
		h.max = s.max.Load()
	}
	return h.Snapshot(), sum
}

// series is one (label values → value) entry of a family.
type series struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	fn        func() float64 // counter/gauge funcs (pull-time values)
	summary   *Summary
}

// family is one named metric with a fixed label-key set.
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string
	scale  float64 // summaries: exposition multiplier (0 = 1)
	series map[string]*series
}

// Registry holds metric families and renders them for scraping. All
// methods are safe for concurrent use; registration methods are
// idempotent for a matching (name, kind, labels) and panic on a
// conflicting re-registration — that is a wiring bug, not a runtime
// condition.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// seriesKey joins label values into a map key; 0xff cannot appear in
// UTF-8 label values produced by our own instrumentation.
func seriesKey(vals []string) string { return strings.Join(vals, "\xff") }

// register returns the family for name, creating it on first use.
func (r *Registry) register(name, help string, kind familyKind, scale float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %q re-registered as %s with %d labels (was %s with %d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, scale: scale,
		series: make(map[string]*series)}
	r.fams[name] = f
	return f
}

// get returns the series for vals, creating it via mk on first use.
func (f *family) get(r *Registry, vals []string, mk func() *series) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(vals)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labelVals = append([]string(nil), vals...)
	f.series[key] = s
	return s
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, 0, nil)
	return f.get(r, nil, func() *series { return &series{counter: &Counter{}} }).counter
}

// CounterFunc registers a counter whose value is pulled at scrape time —
// for subsystems that already keep their own monotonic count.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, 0, nil)
	f.get(r, nil, func() *series { return &series{fn: fn} })
}

// CounterVec is a counter family with labels.
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r: r, f: r.register(name, help, kindCounter, 0, labels)}
}

// With returns the counter for one label-value combination. Resolve it
// once at wiring time for fixed label sets; lookup takes the registry
// lock.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.f.get(cv.r, values, func() *series { return &series{counter: &Counter{}} }).counter
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, 0, nil)
	return f.get(r, nil, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// GaugeFunc registers a gauge whose value is pulled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, 0, nil)
	f.get(r, nil, func() *series { return &series{fn: fn} })
}

// Summary registers (or returns) an unlabeled summary. scale multiplies
// recorded values at exposition (0 means 1); record nanoseconds with
// scale 1e-9 to expose seconds.
func (r *Registry) Summary(name, help string, scale float64) *Summary {
	f := r.register(name, help, kindSummary, scale, nil)
	return f.get(r, nil, func() *series { return &series{summary: newSummary()} }).summary
}

// SummaryVec is a summary family with labels.
type SummaryVec struct {
	r *Registry
	f *family
}

// SummaryVec registers (or returns) a labeled summary family.
func (r *Registry) SummaryVec(name, help string, scale float64, labels ...string) *SummaryVec {
	return &SummaryVec{r: r, f: r.register(name, help, kindSummary, scale, labels)}
}

// With returns the summary for one label-value combination.
func (sv *SummaryVec) With(values ...string) *Summary {
	return sv.f.get(sv.r, values, func() *series { return &series{summary: newSummary()} }).summary
}

// summaryQuantiles are the quantiles every summary exposes.
var summaryQuantiles = []struct {
	q   string
	get func(Snapshot) int64
}{
	{"0.5", func(s Snapshot) int64 { return s.P50 }},
	{"0.9", func(s Snapshot) int64 { return s.P90 }},
	{"0.99", func(s Snapshot) int64 { return s.P99 }},
	{"0.999", func(s Snapshot) int64 { return s.P999 }},
}

// formatFloat renders a value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value for the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels formats {k="v",...}; extra appends one more pair (the
// summary quantile). Empty input and empty extra render nothing.
func renderLabels(keys, vals []string, extraK, extraV string) string {
	if len(keys) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in sorted order so the
// output is stable for golden tests and diffing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		r.mu.Lock()
		sers := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			sers = append(sers, s)
		}
		r.mu.Unlock()
		sort.Slice(sers, func(i, j int) bool {
			return seriesKey(sers[i].labelVals) < seriesKey(sers[j].labelVals)
		})
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		scale := f.scale
		if scale == 0 {
			scale = 1
		}
		for _, s := range sers {
			labels := renderLabels(f.labels, s.labelVals, "", "")
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labels, s.counter.Value())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labels, formatFloat(s.gauge.Value()))
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labels, formatFloat(s.fn()))
			case s.summary != nil:
				snap, sum := s.summary.snapshot()
				for _, q := range summaryQuantiles {
					ql := renderLabels(f.labels, s.labelVals, "quantile", q.q)
					fmt.Fprintf(&b, "%s%s %s\n", f.name, ql, formatFloat(float64(q.get(snap))*scale))
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labels, formatFloat(float64(sum)*scale))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labels, snap.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Sample is one parsed exposition line, as consumed by chronosctl's
// curated status summary and by tests.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns a label value ("" when absent).
func (s Sample) Label(k string) string { return s.Labels[k] }

// ParseText parses Prometheus text exposition output into samples,
// skipping comments and blank lines. It understands exactly the subset
// WritePrometheus emits (which is all chronosctl ever feeds it).
func ParseText(r io.Reader) ([]Sample, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var out []Sample
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: parse line %d: %w", ln+1, err)
		}
		out = append(out, sample)
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		// The closing brace must be found outside quoted label values: a
		// route label like `route="GET /api/v2/evaluations/{id}/status"`
		// legitimately contains '}' inside its quotes.
		end := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++ // skip the escaped byte
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated labels in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for body != "" {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return fmt.Errorf("malformed label pair in %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i == len(rest) {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		into[key] = val.String()
		body = strings.TrimPrefix(rest[i+1:], ",")
	}
	return nil
}

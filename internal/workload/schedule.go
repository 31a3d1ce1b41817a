package workload

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file implements the dynamic workload engine: ordered phases, each
// with its own operation mix, key distribution, arrival-rate curve and
// dataset-growth behaviour, in the spirit of evolving benchmark runs
// (SciTS-style ingestion ramps, CrypQ-style drifting query mixes). The
// static Config is the one-phase degenerate case — see Config.Schedule.

// RateShape names the arrival-rate curve of a phase.
type RateShape string

const (
	// RateConstant holds StartOPS for the whole phase.
	RateConstant RateShape = "constant"
	// RateRamp moves linearly from StartOPS to EndOPS over the phase.
	RateRamp RateShape = "ramp"
	// RateSpike holds StartOPS except for a burst plateau at EndOPS
	// through the middle fifth of the phase.
	RateSpike RateShape = "spike"
)

// RateCurve is the target arrival rate of a phase, in operations per
// second summed over all workers. The zero value means unthrottled.
type RateCurve struct {
	Shape    RateShape
	StartOPS float64
	EndOPS   float64
}

// Throttled reports whether the curve imposes any pacing.
func (r RateCurve) Throttled() bool { return r.StartOPS > 0 || r.EndOPS > 0 }

// At returns the target rate at fraction f in [0,1] of the phase.
func (r RateCurve) At(f float64) float64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	switch r.Shape {
	case RateRamp:
		return r.StartOPS + (r.EndOPS-r.StartOPS)*f
	case RateSpike:
		if f >= 0.4 && f < 0.6 {
			return r.EndOPS
		}
		return r.StartOPS
	default:
		return r.StartOPS
	}
}

// Validate checks the curve.
func (r RateCurve) Validate() error {
	switch r.Shape {
	case "", RateConstant, RateRamp, RateSpike:
	default:
		return fmt.Errorf("workload: unknown rate shape %q", r.Shape)
	}
	if r.StartOPS < 0 || r.EndOPS < 0 {
		return fmt.Errorf("workload: negative rate (start=%v end=%v)", r.StartOPS, r.EndOPS)
	}
	return nil
}

// Phase is one segment of a dynamic schedule. A phase is bounded either
// by operation volume (OperationCount, split across workers) or by wall
// time (Duration, enforced by the runner); setting both is invalid.
type Phase struct {
	// Name labels the phase in per-phase results.
	Name string
	// Mix is the phase's operation mix.
	Mix Mix
	// Distribution is the phase's key distribution; empty means zipfian.
	Distribution string
	// OperationCount bounds the phase by operation volume.
	OperationCount int64
	// Duration bounds the phase by wall time instead. Duration-bounded
	// phases trade op-stream determinism for wall-clock control: the op
	// *sequence* each worker draws stays seeded-deterministic, but how
	// far into it the phase gets depends on the host.
	Duration time.Duration
	// Rate is the arrival-rate curve; the zero value is unthrottled.
	Rate RateCurve
	// GrowDomain widens the key-choosing domain as inserts land: a
	// latest chooser tracks the insert high-water mark immediately;
	// other distributions pick up the grown domain when the next phase
	// is entered.
	GrowDomain bool
}

// Schedule is an ordered sequence of phases over one keyed table. The
// whole schedule is seeded-deterministic per worker: two runs with the
// same Seed and worker topology draw byte-identical op streams across
// every op-bounded phase boundary.
type Schedule struct {
	// Name labels the schedule in results.
	Name string
	// RecordCount is the number of records loaded before the run.
	RecordCount int64
	// FieldsPerRecord, FieldLength and MaxScanLength shape records and
	// scans exactly as in Config.
	FieldsPerRecord int
	FieldLength     int
	MaxScanLength   int
	// Seed makes the run reproducible (see SeedFromEnv).
	Seed int64
	// Phases is the ordered phase list; at least one is required.
	Phases []Phase
}

// WithDefaults fills unset knobs with the Config defaults.
func (s Schedule) WithDefaults() Schedule {
	if s.FieldsPerRecord == 0 {
		s.FieldsPerRecord = 10
	}
	if s.FieldLength == 0 {
		s.FieldLength = 100
	}
	if s.MaxScanLength == 0 {
		s.MaxScanLength = 100
	}
	phases := make([]Phase, len(s.Phases))
	copy(phases, s.Phases)
	for i := range phases {
		if phases[i].Distribution == "" {
			phases[i].Distribution = "zipfian"
		}
		if phases[i].Name == "" {
			phases[i].Name = fmt.Sprintf("phase%d", i)
		}
	}
	s.Phases = phases
	return s
}

// Validate checks the schedule.
func (s *Schedule) Validate() error {
	if s.RecordCount <= 0 {
		return fmt.Errorf("workload: record count %d", s.RecordCount)
	}
	if err := checkFieldKnobs(s.FieldsPerRecord, s.FieldLength, s.MaxScanLength); err != nil {
		return err
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: schedule %q has no phases", s.Name)
	}
	for i, p := range s.Phases {
		if p.OperationCount < 0 {
			return fmt.Errorf("workload: phase %d operation count %d", i, p.OperationCount)
		}
		if p.Duration < 0 {
			return fmt.Errorf("workload: phase %d duration %v", i, p.Duration)
		}
		if p.OperationCount > 0 && p.Duration > 0 {
			return fmt.Errorf("workload: phase %d bounded by both operations and duration", i)
		}
		if err := p.Mix.Validate(); err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
		if p.Distribution != "" {
			if err := checkDistribution(p.Distribution); err != nil {
				return fmt.Errorf("phase %d: %w", i, err)
			}
		}
		if err := p.Rate.Validate(); err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
	}
	return nil
}

// TotalOperations sums the op-bounded phases. exact is false when any
// phase is duration-bounded (its volume depends on the host).
func (s *Schedule) TotalOperations() (total int64, exact bool) {
	exact = true
	for _, p := range s.Phases {
		if p.Duration > 0 {
			exact = false
			continue
		}
		total += p.OperationCount
	}
	return total, exact
}

// Schedule lifts the static config into its one-phase schedule — the
// degenerate case of the dynamic engine. The phase inherits the config's
// mix and distribution, is bounded by OperationCount, and grows the
// domain on insert exactly as the static generator always has.
func (c Config) Schedule() Schedule {
	c = c.WithDefaults()
	return Schedule{
		Name:            c.Name,
		RecordCount:     c.RecordCount,
		FieldsPerRecord: c.FieldsPerRecord,
		FieldLength:     c.FieldLength,
		MaxScanLength:   c.MaxScanLength,
		Seed:            c.Seed,
		Phases: []Phase{{
			Name:           c.Name,
			Mix:            c.Mix,
			Distribution:   c.Distribution,
			OperationCount: c.OperationCount,
			GrowDomain:     true,
		}},
	}
}

// ScheduleGenerator produces one worker's operation stream across every
// phase of a schedule. Like Generator, each worker owns one instance and
// instances share nothing mutable except a Latest chooser's high-water
// mark, which converges on the global maximum.
//
// The insert keyspace is partitioned YCSB-style: worker w of W owns key
// indexes RecordCount+w, RecordCount+w+W, ... so concurrent workers
// never insert the same key.
type ScheduleGenerator struct {
	sched   Schedule
	worker  int
	workers int
	rng     *rand.Rand

	phase   int
	emitted int64 // ops emitted in the current phase by this worker
	share   int64 // worker's slice of the phase's op count; -1 = duration-bounded
	chooser KeyChooser
	ops     *opChooser
	latest  *Latest
	grow    bool

	nextInsert int64 // next insert key index owned by this worker
	highWater  int64 // one past the highest key index this worker has seen

	names  []string // field names, formatted once
	fields []Field  // the one payload buffer every Op.Fields is a prefix of
	pool   []byte   // payload text every value is cut from; see value
}

// NewScheduleGenerator builds the generator for worker (0-based) of
// workers. The rand stream is seeded from Schedule.Seed and the worker
// index, so a seeded run replays exactly.
func NewScheduleGenerator(s Schedule, worker, workers int) (*ScheduleGenerator, error) {
	if workers < 1 {
		return nil, fmt.Errorf("workload: %d workers", workers)
	}
	if worker < 0 {
		return nil, fmt.Errorf("workload: worker index %d", worker)
	}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &ScheduleGenerator{
		sched:   s,
		worker:  worker,
		workers: workers,
		rng:     rand.New(rand.NewPCG(uint64(s.Seed), uint64(worker)*1_000_003+17)),
		// worker%workers keeps auxiliary generators (loaders, warm-up)
		// that pass large worker indexes with workers=1 on the same
		// keyspace as the old single-stream generator.
		nextInsert: s.RecordCount + int64(worker%workers),
		highWater:  s.RecordCount,
		names:      make([]string, s.FieldsPerRecord),
		fields:     make([]Field, s.FieldsPerRecord),
	}
	for i := range g.names {
		g.names[i] = fmt.Sprintf("field%d", i)
	}
	g.enterPhase(0)
	return g, nil
}

// enterPhase installs phase i's choosers. The schedule was validated in
// the constructor, so the chooser constructors cannot fail here.
func (g *ScheduleGenerator) enterPhase(i int) {
	p := &g.sched.Phases[i]
	domain := g.sched.RecordCount
	if p.GrowDomain && g.highWater > domain {
		domain = g.highWater
	}
	chooser, _ := NewChooser(p.Distribution, domain)
	ops, _ := newOpChooser(p.Mix)
	g.phase = i
	g.emitted = 0
	g.chooser = chooser
	g.ops = ops
	g.grow = p.GrowDomain
	g.latest = nil
	if l, ok := chooser.(*Latest); ok {
		g.latest = l
	}
	if p.Duration > 0 {
		g.share = -1
		return
	}
	// Split the phase volume across workers, distributing the remainder
	// over the low worker indexes so exactly OperationCount ops run.
	w := int64(g.workers)
	g.share = p.OperationCount / w
	if int64(g.worker%g.workers) < p.OperationCount%w {
		g.share++
	}
}

// advance moves to the next phase; false at the end of the schedule.
func (g *ScheduleGenerator) advance() bool {
	if g.phase+1 >= len(g.sched.Phases) {
		return false
	}
	g.enterPhase(g.phase + 1)
	return true
}

// AdvancePhase forces the transition out of the current phase; the
// runner calls it when a duration-bounded phase's wall budget elapses.
// It reports false when there is no next phase.
func (g *ScheduleGenerator) AdvancePhase() bool { return g.advance() }

// PhaseIndex returns the current phase index.
func (g *ScheduleGenerator) PhaseIndex() int { return g.phase }

// PhaseFraction estimates progress through an op-bounded phase in [0,1];
// it returns 0 for duration-bounded phases (the runner tracks those by
// wall clock).
func (g *ScheduleGenerator) PhaseFraction() float64 {
	if g.share > 0 {
		return float64(g.emitted) / float64(g.share)
	}
	return 0
}

// Next returns the next operation, advancing through op-bounded phase
// boundaries automatically. It returns false once every phase is
// exhausted. Duration-bounded phases never exhaust on their own — the
// runner advances them with AdvancePhase.
func (g *ScheduleGenerator) Next() (Op, bool) {
	for g.share >= 0 && g.emitted >= g.share {
		if !g.advance() {
			return Op{}, false
		}
	}
	return g.emit(), true
}

// emit draws one operation from the current phase. The static Generator
// is a view of this one path, so the degenerate one-phase schedule draws
// the same stream it does.
func (g *ScheduleGenerator) emit() Op {
	t := g.ops.next(g.rng)
	g.emitted++
	op := Op{Type: t, Phase: g.phase}
	switch t {
	case OpInsert:
		op.KeyIndex = g.nextInsert
		g.nextInsert += int64(g.workers)
		if op.KeyIndex+1 > g.highWater {
			g.highWater = op.KeyIndex + 1
		}
		if g.latest != nil && g.grow {
			g.latest.GrowTo(g.highWater)
		}
		op.Fields = g.Record()
	case OpScan:
		op.KeyIndex = g.chooser.Next(g.rng)
		op.ScanLength = 1 + g.rng.IntN(g.sched.MaxScanLength)
	case OpUpdate, OpReadModifyWrite:
		op.KeyIndex = g.chooser.Next(g.rng)
		op.Fields = g.OneField()
	default: // OpRead: a validated mix holds no other type
		op.KeyIndex = g.chooser.Next(g.rng)
	}
	op.Key = Key(op.KeyIndex)
	return op
}

// Record generates a full record payload, one draw per field. It is valid
// until the generator's next draw.
func (g *ScheduleGenerator) Record() []Field {
	for i, name := range g.names {
		g.fields[i] = Field{Name: name, Value: g.value()}
	}
	return g.fields
}

// OneField generates a single-field update payload in two draws, the
// field and its value. It is valid until the generator's next draw.
func (g *ScheduleGenerator) OneField() []Field {
	i := g.rng.IntN(len(g.names))
	g.fields[0] = Field{Name: g.names[i], Value: g.value()}
	return g.fields[:1]
}

// poolSpan is the number of offsets a value can start at in the payload
// pool. It is wider than DEFLATE's 32 KiB window, so that a compressing
// SUT rarely finds one value's bytes by looking back at an earlier one and
// sees the ratio of the text itself.
const poolSpan = 64 << 10

// value cuts one FieldLength-long value out of the generator's payload
// pool at a drawn offset (db_bench's RandomGenerator technique): one draw
// and no allocation per value, where drawing the value's text itself cost
// some 45 draws per 100 bytes and made the generator dearer than the
// systems it drives. The pool is built on the first payload draw, from the
// generator's own rand stream, so a seed still fixes every byte; a
// generator that only reads never builds one. The value's capacity is
// clipped to its length and it aliases the pool: read-only for everyone.
func (g *ScheduleGenerator) value() []byte {
	n := g.sched.FieldLength
	if g.pool == nil {
		g.pool = g.poolText(poolSpan + n)
	}
	off := g.rng.IntN(poolSpan)
	return g.pool[off : off+n : off+n]
}

// poolText draws n bytes of compressible-but-not-constant text, so engines
// with block compression see realistic ratios (~2-4x): runs of one to
// eight repeated lower-case letters, compressible like real text.
func (g *ScheduleGenerator) poolText(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; {
		ch := byte('a' + g.rng.IntN(26))
		for run := 1 + g.rng.IntN(8); run > 0 && i < n; run-- {
			b[i] = ch
			i++
		}
	}
	return b
}

// --- phase DSL ---
//
// Dynamic schedules travel through Chronos as one string job parameter.
// The DSL is compact: phases are ';'-separated, tokens inside a phase are
// ','-separated key=value pairs:
//
//	phase=warm,ops=2000,mix=read:95+update:5,dist=zipfian;
//	phase=surge,dur=2s,mix=insert:50+read:50,dist=latest,rate=ramp:500:5000,grow=1
//
// Keys: phase (name), ops (operation count) or dur (Go duration), mix
// (op:weight pairs joined by '+'), dist (distribution), rate
// (shape:start[:end] in ops/sec), grow (1/true).

// ParseSchedulePhases parses the phase DSL.
func ParseSchedulePhases(spec string) ([]Phase, error) {
	var phases []Phase
	for i, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		p, err := parsePhase(seg)
		if err != nil {
			return nil, fmt.Errorf("workload: schedule phase %d: %w", i, err)
		}
		phases = append(phases, p)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: empty schedule spec")
	}
	return phases, nil
}

func parsePhase(seg string) (Phase, error) {
	var p Phase
	for _, tok := range strings.Split(seg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return Phase{}, fmt.Errorf("token %q is not key=value", tok)
		}
		switch k {
		case "phase", "name":
			p.Name = v
		case "ops":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Phase{}, fmt.Errorf("ops %q: %w", v, err)
			}
			p.OperationCount = n
		case "dur":
			d, err := time.ParseDuration(v)
			if err != nil {
				return Phase{}, fmt.Errorf("dur %q: %w", v, err)
			}
			p.Duration = d
		case "mix":
			m, err := parseMix(v)
			if err != nil {
				return Phase{}, err
			}
			p.Mix = m
		case "dist":
			p.Distribution = v
		case "rate":
			rc, err := parseRate(v)
			if err != nil {
				return Phase{}, err
			}
			p.Rate = rc
		case "grow":
			p.GrowDomain = v == "1" || strings.EqualFold(v, "true")
		default:
			return Phase{}, fmt.Errorf("unknown key %q", k)
		}
	}
	return p, nil
}

func parseMix(v string) (Mix, error) {
	m := Mix{}
	for _, part := range strings.Split(v, "+") {
		op, weight, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("mix part %q is not op:weight", part)
		}
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil {
			return nil, fmt.Errorf("mix weight %q: %w", weight, err)
		}
		m[OpType(op)] = w
	}
	return m, nil
}

func parseRate(v string) (RateCurve, error) {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return RateCurve{}, fmt.Errorf("rate %q is not shape:start[:end]", v)
	}
	rc := RateCurve{Shape: RateShape(parts[0])}
	start, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return RateCurve{}, fmt.Errorf("rate start %q: %w", parts[1], err)
	}
	rc.StartOPS = start
	if len(parts) == 3 {
		end, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return RateCurve{}, fmt.Errorf("rate end %q: %w", parts[2], err)
		}
		rc.EndOPS = end
	}
	return rc, nil
}

// EncodeSchedulePhases renders phases back into the DSL; the output
// round-trips through ParseSchedulePhases.
func EncodeSchedulePhases(phases []Phase) string {
	segs := make([]string, 0, len(phases))
	for _, p := range phases {
		var toks []string
		if p.Name != "" {
			toks = append(toks, "phase="+p.Name)
		}
		if p.Duration > 0 {
			toks = append(toks, "dur="+p.Duration.String())
		} else {
			toks = append(toks, "ops="+strconv.FormatInt(p.OperationCount, 10))
		}
		if len(p.Mix) > 0 {
			ops := make([]string, 0, len(p.Mix))
			for op := range p.Mix {
				ops = append(ops, string(op))
			}
			sort.Strings(ops)
			parts := make([]string, 0, len(ops))
			for _, op := range ops {
				parts = append(parts, op+":"+strconv.FormatFloat(p.Mix[OpType(op)], 'g', -1, 64))
			}
			toks = append(toks, "mix="+strings.Join(parts, "+"))
		}
		if p.Distribution != "" {
			toks = append(toks, "dist="+p.Distribution)
		}
		if p.Rate.Throttled() {
			shape := p.Rate.Shape
			if shape == "" {
				shape = RateConstant
			}
			r := "rate=" + string(shape) + ":" + strconv.FormatFloat(p.Rate.StartOPS, 'g', -1, 64)
			if p.Rate.EndOPS != 0 {
				r += ":" + strconv.FormatFloat(p.Rate.EndOPS, 'g', -1, 64)
			}
			toks = append(toks, r)
		}
		if p.GrowDomain {
			toks = append(toks, "grow=1")
		}
		segs = append(segs, strings.Join(toks, ","))
	}
	return strings.Join(segs, ";")
}

// FieldError reports a record-shape knob with an invalid negative value.
// Left unvalidated these panic later inside rand.IntN on the hot path,
// so Validate rejects them up front with a typed error callers can match
// with errors.As.
type FieldError struct {
	Field string
	Value int
}

// Error implements error.
func (e *FieldError) Error() string {
	return fmt.Sprintf("workload: %s must not be negative (got %d)", e.Field, e.Value)
}

// checkFieldKnobs validates the three record-shape knobs shared by
// Config and Schedule. Zero is legal — WithDefaults fills it.
func checkFieldKnobs(fieldsPerRecord, fieldLength, maxScanLength int) error {
	if fieldsPerRecord < 0 {
		return &FieldError{Field: "FieldsPerRecord", Value: fieldsPerRecord}
	}
	if fieldLength < 0 {
		return &FieldError{Field: "FieldLength", Value: fieldLength}
	}
	if maxScanLength < 0 {
		return &FieldError{Field: "MaxScanLength", Value: maxScanLength}
	}
	return nil
}

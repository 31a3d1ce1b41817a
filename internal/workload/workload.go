package workload

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
)

// OpType enumerates the benchmark operation types.
type OpType string

const (
	// OpRead fetches one record by key.
	OpRead OpType = "read"
	// OpUpdate overwrites one field of an existing record.
	OpUpdate OpType = "update"
	// OpInsert appends a new record.
	OpInsert OpType = "insert"
	// OpScan reads a short range of consecutive records.
	OpScan OpType = "scan"
	// OpReadModifyWrite reads a record then writes it back modified.
	OpReadModifyWrite OpType = "rmw"
)

// opTypes lists the known operation types; a type's position is the
// ordinal the run loop indexes its per-type histograms with.
var opTypes = [...]OpType{OpRead, OpUpdate, OpInsert, OpScan, OpReadModifyWrite}

// ordinal is the position of t in opTypes, or -1 for an unknown type.
func (t OpType) ordinal() int {
	for i, known := range opTypes {
		if t == known {
			return i
		}
	}
	return -1
}

// Mix assigns proportions to operation types. Proportions are relative
// weights; they do not need to sum to 1.
type Mix map[OpType]float64

// Validate checks the mix has positive total weight and no negatives.
func (m Mix) Validate() error {
	total := 0.0
	for op, w := range m {
		if w < 0 {
			return fmt.Errorf("workload: negative weight for %s", op)
		}
		if op.ordinal() < 0 {
			return fmt.Errorf("workload: unknown operation %q", op)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("workload: mix has no positive weights")
	}
	return nil
}

// String renders the mix deterministically, e.g. "read=95% update=5%".
func (m Mix) String() string {
	ops := make([]string, 0, len(m))
	for op := range m {
		ops = append(ops, string(op))
	}
	sort.Strings(ops)
	total := 0.0
	for _, w := range m {
		total += w
	}
	parts := make([]string, 0, len(ops))
	for _, op := range ops {
		parts = append(parts, fmt.Sprintf("%s=%.0f%%", op, 100*m[OpType(op)]/total))
	}
	return strings.Join(parts, " ")
}

// opChooser picks operations according to mix weights.
type opChooser struct {
	ops []OpType
	cum []float64
}

func newOpChooser(m Mix) (*opChooser, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ops := make([]OpType, 0, len(m))
	for op := range m {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	c := &opChooser{}
	sum := 0.0
	for _, op := range ops {
		if m[op] == 0 {
			continue
		}
		sum += m[op]
		c.ops = append(c.ops, op)
		c.cum = append(c.cum, sum)
	}
	for i := range c.cum {
		c.cum[i] /= sum
	}
	return c, nil
}

func (c *opChooser) next(r *rand.Rand) OpType {
	u := r.Float64()
	for i, cum := range c.cum {
		if u <= cum {
			return c.ops[i]
		}
	}
	return c.ops[len(c.ops)-1]
}

// Config describes a workload: table size, operation volume, mix and key
// distribution. It mirrors the knobs of a YCSB property file.
type Config struct {
	// Name labels the workload in results.
	Name string
	// RecordCount is the number of records loaded before the run.
	RecordCount int64
	// OperationCount is the number of operations in the run phase.
	OperationCount int64
	// Mix is the operation mix.
	Mix Mix
	// Distribution is the request distribution: uniform, zipfian, latest
	// or sequential.
	Distribution string
	// FieldsPerRecord is the number of payload fields per record.
	FieldsPerRecord int
	// FieldLength is the byte length of each field value.
	FieldLength int
	// MaxScanLength bounds the records touched per scan.
	MaxScanLength int
	// Seed makes the run reproducible.
	Seed int64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.RecordCount <= 0 {
		return fmt.Errorf("workload: record count %d", c.RecordCount)
	}
	if c.OperationCount < 0 {
		return fmt.Errorf("workload: operation count %d", c.OperationCount)
	}
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if c.Distribution == "" {
		return fmt.Errorf("workload: missing distribution")
	}
	if err := checkDistribution(c.Distribution); err != nil {
		return err
	}
	if err := checkFieldKnobs(c.FieldsPerRecord, c.FieldLength, c.MaxScanLength); err != nil {
		return err
	}
	return nil
}

// WithDefaults fills unset knobs with YCSB-like defaults.
func (c Config) WithDefaults() Config {
	if c.FieldsPerRecord == 0 {
		c.FieldsPerRecord = 10
	}
	if c.FieldLength == 0 {
		c.FieldLength = 100
	}
	if c.MaxScanLength == 0 {
		c.MaxScanLength = 100
	}
	if c.Distribution == "" {
		c.Distribution = "zipfian"
	}
	return c
}

// Core workload constructors follow the YCSB letter suite.

// WorkloadA is the update-heavy mix: 50% reads, 50% updates, zipfian.
func WorkloadA(records, ops int64) Config {
	return Config{Name: "A", RecordCount: records, OperationCount: ops,
		Mix: Mix{OpRead: 0.5, OpUpdate: 0.5}, Distribution: "zipfian"}.WithDefaults()
}

// WorkloadB is the read-mostly mix: 95% reads, 5% updates, zipfian.
func WorkloadB(records, ops int64) Config {
	return Config{Name: "B", RecordCount: records, OperationCount: ops,
		Mix: Mix{OpRead: 0.95, OpUpdate: 0.05}, Distribution: "zipfian"}.WithDefaults()
}

// WorkloadC is read-only, zipfian.
func WorkloadC(records, ops int64) Config {
	return Config{Name: "C", RecordCount: records, OperationCount: ops,
		Mix: Mix{OpRead: 1}, Distribution: "zipfian"}.WithDefaults()
}

// WorkloadD is read-latest: 95% reads of recent records, 5% inserts.
func WorkloadD(records, ops int64) Config {
	return Config{Name: "D", RecordCount: records, OperationCount: ops,
		Mix: Mix{OpRead: 0.95, OpInsert: 0.05}, Distribution: "latest"}.WithDefaults()
}

// WorkloadE is short scans: 95% scans, 5% inserts.
func WorkloadE(records, ops int64) Config {
	c := Config{Name: "E", RecordCount: records, OperationCount: ops,
		Mix: Mix{OpScan: 0.95, OpInsert: 0.05}, Distribution: "zipfian"}.WithDefaults()
	c.MaxScanLength = 20
	return c
}

// WorkloadF is read-modify-write: 50% reads, 50% RMW, zipfian.
func WorkloadF(records, ops int64) Config {
	return Config{Name: "F", RecordCount: records, OperationCount: ops,
		Mix: Mix{OpRead: 0.5, OpReadModifyWrite: 0.5}, Distribution: "zipfian"}.WithDefaults()
}

// CoreWorkload returns the named YCSB core workload (letter a-f, any
// case).
func CoreWorkload(name string, records, ops int64) (Config, error) {
	switch strings.ToLower(name) {
	case "a":
		return WorkloadA(records, ops), nil
	case "b":
		return WorkloadB(records, ops), nil
	case "c":
		return WorkloadC(records, ops), nil
	case "d":
		return WorkloadD(records, ops), nil
	case "e":
		return WorkloadE(records, ops), nil
	case "f":
		return WorkloadF(records, ops), nil
	default:
		return Config{}, fmt.Errorf("workload: unknown core workload %q", name)
	}
}

// MixFromRatio builds a read/update mix from integer ratio parts, the
// form the Chronos parameter type "ratio" delivers (e.g. 95:5).
func MixFromRatio(readPart, updatePart int) Mix {
	return Mix{OpRead: float64(readPart), OpUpdate: float64(updatePart)}
}

// Op is a single generated operation.
type Op struct {
	Type OpType
	// Key is the record key for read/update/insert/rmw and the scan start.
	Key string
	// KeyIndex is the numeric record index behind Key, so engines with
	// non-"user" key naming (e.g. time-series series names) can derive
	// their own keys without parsing.
	KeyIndex int64
	// ScanLength is the number of records a scan touches.
	ScanLength int
	// Fields holds generated field values for insert/update/rmw. The
	// slice and the value bytes belong to the generator: they are
	// read-only and valid only until apply returns (see Field).
	Fields []Field
	// Phase is the index of the schedule phase that produced the op.
	Phase int
}

// Field is one named payload value. Value is cut from the generator's
// payload pool and Fields from its one field buffer, so a SUT adapter must
// neither write through Value nor keep either past the call that received
// them; an adapter that stores a payload copies it first.
type Field struct {
	Name  string
	Value []byte
}

// Generator produces the operation stream of a run. Each worker should
// own one Generator (they share nothing). It is the single-stream view
// of a ScheduleGenerator over the config's one-phase schedule.
type Generator struct {
	sg *ScheduleGenerator
}

// NewGenerator builds a generator for the given worker index; distinct
// workers derive distinct deterministic seeds. Each generator owns its
// rand source (a PCG seeded from cfg.Seed and the worker index), so
// workers share no generator state and a seeded run replays exactly.
//
// NewGenerator does NOT partition the insert keyspace: every instance
// starts inserting at cfg.RecordCount. Concurrent workers that insert
// must use NewGeneratorWorkers so their insert keys stay distinct.
func NewGenerator(cfg Config, worker int) (*Generator, error) {
	return NewGeneratorWorkers(cfg, worker, 1)
}

// NewGeneratorWorkers builds a generator for worker (0-based) of workers
// concurrent streams. The insert keyspace is partitioned YCSB-style:
// worker w owns key indexes RecordCount+w, RecordCount+w+workers, ... so
// concurrent workers never generate the same insert key.
func NewGeneratorWorkers(cfg Config, worker, workers int) (*Generator, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sg, err := NewScheduleGenerator(cfg.Schedule(), worker, workers)
	if err != nil {
		return nil, err
	}
	return &Generator{sg: sg}, nil
}

// Key renders record index i as its canonical key, zero-padded so that
// lexicographic and numeric orders agree (YCSB's "user" keys).
func Key(i int64) string { return PaddedKey("user", i, 12) }

// PaddedKey renders prefix followed by i in decimal, zero-padded to width
// characters (a minus sign counts towards the width): byte for byte
// fmt.Sprintf(prefix+"%0*d", width, i), at the cost of the returned
// string's allocation alone — every operation formats one.
func PaddedKey(prefix string, i int64, width int) string {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	u := uint64(i)
	if i < 0 {
		b = append(b, '-')
		u = -u
		width--
	}
	var digits [20]byte
	n := len(digits)
	for {
		n--
		digits[n] = byte('0' + u%10)
		if u /= 10; u == 0 {
			break
		}
	}
	for pad := width - (len(digits) - n); pad > 0; pad-- {
		b = append(b, '0')
	}
	return string(append(b, digits[n:]...))
}

// NextOp generates the next operation. The generator does not stop at
// cfg.OperationCount — callers that count ops themselves keep drawing
// from the same stream past the configured volume.
func (g *Generator) NextOp() Op {
	if op, ok := g.sg.Next(); ok {
		return op
	}
	return g.sg.emit()
}

// Record generates a full record payload, valid until the next draw.
func (g *Generator) Record() []Field { return g.sg.Record() }

// OneField generates a single-field update payload, valid until the next
// draw.
func (g *Generator) OneField() []Field { return g.sg.OneField() }

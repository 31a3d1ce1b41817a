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

// The operation types' ordinals: the op chooser draws one, the generator
// switches on it and the run loop indexes its per-type histograms with it.
const (
	kindRead uint8 = iota
	kindUpdate
	kindInsert
	kindScan
	kindRMW
)

// opTypes lists the known operation types, each at its ordinal.
var opTypes = [...]OpType{
	kindRead: OpRead, kindUpdate: OpUpdate, kindInsert: OpInsert,
	kindScan: OpScan, kindRMW: OpReadModifyWrite,
}

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

// opChooser picks operations according to mix weights. It draws an
// operation's ordinal, its position in opTypes.
type opChooser struct {
	kinds []uint8
	cum   []float64
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
		c.kinds = append(c.kinds, uint8(op.ordinal()))
		c.cum = append(c.cum, sum)
	}
	for i := range c.cum {
		c.cum[i] /= sum
	}
	return c, nil
}

func (c *opChooser) next(r *rand.Rand) uint8 {
	u := r.Float64()
	for i, cum := range c.cum {
		if u <= cum {
			return c.kinds[i]
		}
	}
	return c.kinds[len(c.kinds)-1]
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

// MixFromRatio builds a read/update mix from integer ratio parts, the
// form the Chronos parameter type "ratio" delivers (e.g. 95:5).
func MixFromRatio(readPart, updatePart int) Mix {
	return Mix{OpRead: float64(readPart), OpUpdate: float64(updatePart)}
}

// Op is a single generated operation.
type Op struct {
	Type OpType
	// KeyIndex is the record index for read/update/insert/rmw and the
	// scan start. Key renders it as a "user" key; engines with their own
	// key naming (e.g. time-series series names) derive theirs from it.
	KeyIndex int64
	// ScanLength is the number of records a scan touches.
	ScanLength int
	// Fields holds generated field values for insert/update/rmw. The
	// slice and the value bytes belong to the generator: they are
	// read-only and valid only until apply returns (see Field).
	Fields []Field
	// Phase is the index of the schedule phase that produced the op.
	Phase int
	// kind is Type's ordinal, set by the generator that drew the op.
	kind uint8
}

// Field is one named payload value. Value is cut from the generator's
// payload pool and Fields from its one field buffer, so a SUT adapter must
// neither write through Value nor keep either past the call that received
// them; an adapter that stores a payload copies it first.
type Field struct {
	Name  string
	Value []byte
}

// Key renders the op's record index as its canonical key. The engine
// formats none: an adapter that needs the key string calls this once.
func (op Op) Key() string { return Key(op.KeyIndex) }

// Key renders record index i as its canonical key, zero-padded so that
// lexicographic and numeric orders agree (YCSB's "user" keys).
func Key(i int64) string { return PaddedKey("user", i, 12) }

// PaddedKey renders prefix followed by i in decimal, zero-padded to width
// characters (a minus sign counts towards the width): byte for byte
// fmt.Sprintf(prefix+"%0*d", width, i), at the cost of the returned
// string's allocation alone.
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

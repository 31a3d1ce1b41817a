package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

// testRand returns a deterministic per-test source.
func testRand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0))
}

func TestChooserBoundsProperty(t *testing.T) {
	// Every chooser must only ever return indexes in [0, n).
	for _, dist := range []string{"uniform", "zipfian", "latest", "sequential"} {
		dist := dist
		f := func(seed int64, nRaw uint16) bool {
			n := int64(nRaw%1000) + 1
			c, err := NewChooser(dist, n)
			if err != nil {
				return false
			}
			r := testRand(seed)
			for i := 0; i < 500; i++ {
				k := c.Next(r)
				if k < 0 || k >= n {
					t.Logf("%s: key %d out of [0,%d)", dist, k, n)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
	}
}

func TestUnknownDistribution(t *testing.T) {
	if _, err := NewChooser("pareto", 10); err == nil {
		t.Fatal("expected error for unknown distribution")
	}
}

func TestZipfianSkew(t *testing.T) {
	// With theta=0.99 over 1000 items, the most popular item should draw
	// far more than the uniform share of 0.1%.
	z := NewZipfian(1000)
	r := testRand(42)
	counts := make(map[int64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next(r)]++
	}
	top := float64(counts[0]) / draws
	if top < 0.05 {
		t.Fatalf("item 0 frequency %.4f, expected heavy skew (>5%%)", top)
	}
	// Sanity: uniform draws the expected share.
	u := NewUniform(1000)
	counts = make(map[int64]int)
	for i := 0; i < draws; i++ {
		counts[u.Next(r)]++
	}
	if f := float64(counts[0]) / draws; f > 0.01 {
		t.Fatalf("uniform item 0 frequency %.4f unexpectedly high", f)
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	s := NewScrambledZipfian(1000)
	r := testRand(7)
	counts := make(map[int64]int)
	for i := 0; i < 100000; i++ {
		counts[s.Next(r)]++
	}
	// Find the hottest key; it should not be key 0 systematically (hash
	// scrambling) but should still dominate.
	var hot int64
	max := 0
	for k, c := range counts {
		if c > max {
			hot, max = k, c
		}
	}
	if float64(max)/100000 < 0.05 {
		t.Fatalf("scrambled zipfian lost its skew: top %.4f", float64(max)/100000)
	}
	_ = hot
}

func TestLatestPrefersRecent(t *testing.T) {
	l := NewLatest(1000)
	r := testRand(3)
	recent := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if l.Next(r) >= 900 {
			recent++
		}
	}
	if float64(recent)/draws < 0.5 {
		t.Fatalf("latest chooser drew recent keys only %.2f of the time", float64(recent)/draws)
	}
	// Growing must keep bounds.
	for i := 0; i < 3000; i++ {
		l.Grow()
	}
	for i := 0; i < 1000; i++ {
		k := l.Next(r)
		if k < 0 || k >= 4000 {
			t.Fatalf("grown latest out of bounds: %d", k)
		}
	}
}

func TestSequentialWraps(t *testing.T) {
	s := NewSequential(3)
	r := testRand(1)
	got := []int64{s.Next(r), s.Next(r), s.Next(r), s.Next(r)}
	want := []int64{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequential = %v, want %v", got, want)
		}
	}
}

func TestMixValidate(t *testing.T) {
	if err := (Mix{OpRead: 0.5, OpUpdate: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Mix{OpRead: -1}).Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := (Mix{}).Validate(); err == nil {
		t.Fatal("empty mix accepted")
	}
	if err := (Mix{"teleport": 1}).Validate(); err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := (Mix{OpRead: 0}).Validate(); err == nil {
		t.Fatal("zero-total mix accepted")
	}
}

func TestMixString(t *testing.T) {
	s := Mix{OpRead: 95, OpUpdate: 5}.String()
	if s != "read=95% update=5%" {
		t.Fatalf("Mix.String() = %q", s)
	}
}

func TestMixFromRatio(t *testing.T) {
	m := MixFromRatio(95, 5)
	if m[OpRead] != 95 || m[OpUpdate] != 5 {
		t.Fatalf("MixFromRatio = %v", m)
	}
}

func TestOpChooserProportions(t *testing.T) {
	c, err := newOpChooser(Mix{OpRead: 0.9, OpUpdate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	r := testRand(11)
	reads := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if c.next(r) == OpRead {
			reads++
		}
	}
	frac := float64(reads) / draws
	if frac < 0.88 || frac > 0.92 {
		t.Fatalf("read fraction = %.3f, want ~0.9", frac)
	}
}

func TestCoreWorkloads(t *testing.T) {
	for _, name := range []string{"a", "B", "c", "D", "e", "F"} {
		cfg, err := CoreWorkload(name, 1000, 100)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("workload %s invalid: %v", name, err)
		}
	}
	if _, err := CoreWorkload("z", 10, 10); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{RecordCount: 0, OperationCount: 1, Mix: Mix{OpRead: 1}, Distribution: "uniform"},
		{RecordCount: 10, OperationCount: -1, Mix: Mix{OpRead: 1}, Distribution: "uniform"},
		{RecordCount: 10, OperationCount: 1, Mix: Mix{}, Distribution: "uniform"},
		{RecordCount: 10, OperationCount: 1, Mix: Mix{OpRead: 1}, Distribution: ""},
		{RecordCount: 10, OperationCount: 1, Mix: Mix{OpRead: 1}, Distribution: "nope"},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := WorkloadA(1000, 100)
	cfg.Seed = 99
	g1, err := NewGenerator(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(cfg, 0)
	for i := 0; i < 200; i++ {
		a, b := g1.NextOp(), g2.NextOp()
		if a.Type != b.Type || a.Key != b.Key {
			t.Fatalf("generators diverged at op %d: %v vs %v", i, a, b)
		}
	}
	// Different workers must diverge.
	g3, _ := NewGenerator(cfg, 1)
	same := 0
	for i := 0; i < 100; i++ {
		a, b := g1.NextOp(), g3.NextOp()
		if a.Type == b.Type && a.Key == b.Key {
			same++
		}
	}
	if same == 100 {
		t.Fatal("distinct workers generated identical streams")
	}
}

func TestGeneratorOpShapes(t *testing.T) {
	cfg := Config{
		Name: "mixed", RecordCount: 100, OperationCount: 1000,
		Mix:          Mix{OpRead: 1, OpUpdate: 1, OpInsert: 1, OpScan: 1, OpReadModifyWrite: 1},
		Distribution: "zipfian", Seed: 5,
		MaxScanLength: 50,
	}
	g, err := NewGenerator(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[OpType]bool{}
	for i := 0; i < 2000; i++ {
		op := g.NextOp()
		seen[op.Type] = true
		if !strings.HasPrefix(op.Key, "user") {
			t.Fatalf("bad key %q", op.Key)
		}
		switch op.Type {
		case OpInsert:
			if len(op.Fields) != 10 {
				t.Fatalf("insert with %d fields, want 10", len(op.Fields))
			}
		case OpUpdate, OpReadModifyWrite:
			if len(op.Fields) != 1 {
				t.Fatalf("%s with %d fields, want 1", op.Type, len(op.Fields))
			}
		case OpScan:
			if op.ScanLength < 1 || op.ScanLength > cfg.MaxScanLength {
				t.Fatalf("scan length %d outside [1,%d]", op.ScanLength, cfg.MaxScanLength)
			}
		case OpRead:
			if op.Fields != nil {
				t.Fatal("read should carry no fields")
			}
		}
	}
	for _, op := range []OpType{OpRead, OpUpdate, OpInsert, OpScan, OpReadModifyWrite} {
		if !seen[op] {
			t.Errorf("op %s never generated", op)
		}
	}
}

func TestGeneratorInsertKeysUniqueAndFresh(t *testing.T) {
	cfg := WorkloadD(100, 1000)
	cfg.Seed = 13
	g, err := NewGenerator(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		op := g.NextOp()
		if op.Type != OpInsert {
			continue
		}
		if seen[op.Key] {
			t.Fatalf("duplicate insert key %s", op.Key)
		}
		seen[op.Key] = true
		if op.Key < Key(100) {
			t.Fatalf("insert key %s collides with loaded range", op.Key)
		}
	}
}

func TestKeyPaddingSortsNumerically(t *testing.T) {
	if !(Key(9) < Key(10) && Key(999) < Key(1000)) {
		t.Fatal("key padding does not preserve numeric order")
	}
	// The hand-rolled formatting is fmt's, byte for byte, at the padding
	// boundaries, below zero and past the pad width.
	for _, i := range []int64{
		0, 1, 9, 10, 99_999_999, 999_999_999, 1_000_000_000, 99_999_999_999,
		999_999_999_999, 1_000_000_000_000, 1_000_000_000_001, 123_456_789_012_345,
		-1, -9, -10, -99_999_999_999, -100_000_000_000, -1_000_000_000_000,
		math.MaxInt64, math.MinInt64,
	} {
		if got, want := Key(i), fmt.Sprintf("user%012d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
	long := strings.Repeat("p", 100) // longer than the stack buffer
	if got, want := PaddedKey(long, 7, 3), long+"007"; got != want {
		t.Errorf("PaddedKey with a long prefix = %q, want %q", got, want)
	}
}

// TestFieldValueCompressible: values cut from the pool are FieldLength
// long, as compressible as the run-structured text they are cut from
// (uniform random letters repeat an adjacent byte ~4% of the time), and
// nearly all distinct.
func TestFieldValueCompressible(t *testing.T) {
	cfg := WorkloadA(10, 10)
	cfg.Seed = 1
	g, _ := NewGenerator(cfg, 0)
	distinct := map[string]bool{}
	for n := 0; n < 1000; n++ {
		v := g.OneField()[0].Value
		if len(v) != cfg.FieldLength || cap(v) != cfg.FieldLength {
			t.Fatalf("value %d: len %d cap %d, want both %d", n, len(v), cap(v), cfg.FieldLength)
		}
		repeats := 0
		for i := 1; i < len(v); i++ {
			if v[i] == v[i-1] {
				repeats++
			}
		}
		if float64(repeats)/float64(len(v)) < 0.3 {
			t.Fatalf("value %d not compressible: %d repeats in %d bytes", n, repeats, len(v))
		}
		distinct[string(v)] = true
	}
	if len(distinct) < 900 {
		t.Fatalf("%d distinct values in 1000, want at least 900", len(distinct))
	}
}

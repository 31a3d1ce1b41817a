package workload

import (
	"runtime"
	"testing"
)

// engineShapes are the schedules the engine's own cost is measured on:
// one per operation type, and the 50:50 read/update mix of the
// benchmark ladder's workload.engine_ns_per_op rung.
var engineShapes = []struct {
	name string
	mix  Mix
}{
	{"read", Mix{OpRead: 1}},
	{"update", Mix{OpUpdate: 1}},
	{"insert", Mix{OpInsert: 1}},
	{"scan", Mix{OpScan: 1}},
	{"rmw", Mix{OpReadModifyWrite: 1}},
	{"read50_update50", MixFromRatio(50, 50)},
}

// runEngine drives ops operations of mix through RunSchedule on one
// thread with an apply that does nothing: what is left is the engine.
func runEngine(tb testing.TB, mix Mix, ops int) {
	sched := Config{RecordCount: 1000, OperationCount: int64(ops), Mix: mix, Distribution: "zipfian", Seed: 1}.Schedule()
	m, err := RunSchedule(sched, 1, func(Op) error { return nil }, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if m.Total.Operations != int64(ops) {
		tb.Fatalf("ran %d operations, want %d", m.Total.Operations, ops)
	}
}

// BenchmarkEngineOverhead is the instrument's own cost per operation.
func BenchmarkEngineOverhead(b *testing.B) {
	for _, shape := range engineShapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			runEngine(b, shape.mix, b.N)
		})
	}
}

// TestEngineAllocsPerOp pins the allocation cost of a generated operation
// at one, the key string, for every operation type. A run's fixed cost
// (generator, pool, histograms, goroutine) cancels in the difference of
// two runs, and allocation counts do not depend on the host's speed, so
// the bound is exact.
func TestEngineAllocsPerOp(t *testing.T) {
	mallocs := func(mix Mix, ops int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runEngine(t, mix, ops)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const ops = 20000
	for _, shape := range engineShapes {
		short, long := mallocs(shape.mix, ops), mallocs(shape.mix, 2*ops)
		if perOp := float64(long-short) / ops; perOp > 1.01 {
			t.Errorf("%s: %.2f allocations per operation, want at most 1", shape.name, perOp)
		}
	}
}

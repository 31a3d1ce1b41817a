package workload

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// engineShapes are the schedules the engine's own cost is measured on:
// one per operation type over zipfian keys, inserts into a growing
// latest domain (tsagent's fill phase), and the 50:50 read/update mix of
// the benchmark ladder's workload.engine_ns_per_op rung.
var engineShapes = []struct {
	name string
	mix  Mix
	dist string
}{
	{"read", Mix{OpRead: 1}, "zipfian"},
	{"update", Mix{OpUpdate: 1}, "zipfian"},
	{"insert", Mix{OpInsert: 1}, "zipfian"},
	{"insert_latest", Mix{OpInsert: 1}, "latest"},
	{"scan", Mix{OpScan: 1}, "zipfian"},
	{"rmw", Mix{OpReadModifyWrite: 1}, "zipfian"},
	{"read50_update50", MixFromRatio(50, 50), "zipfian"},
}

// runEngine drives ops operations of mix through RunSchedule on one
// thread with an apply that does nothing: what is left is the engine.
func runEngine(tb testing.TB, mix Mix, dist string, ops int) {
	sched := Config{RecordCount: 1000, OperationCount: int64(ops), Mix: mix, Distribution: dist, Seed: 1}.Schedule()
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
			runEngine(b, shape.mix, shape.dist, b.N)
		})
	}
}

// TestEngineAllocsPerOp pins the allocation cost of a generated operation
// at zero for every shape: the engine formats no key string, records into
// histograms it allocated up front, and a growing latest domain rebuilds
// its Zipfian only when the domain doubles. A run's fixed cost
// (generator, pool, histograms, goroutine) cancels in the difference of
// two runs, and allocation counts do not depend on the host's speed, so
// the bound is exact; the difference is signed, because the runtime's own
// background allocations can leave the longer run with fewer.
func TestEngineAllocsPerOp(t *testing.T) {
	mallocs := func(mix Mix, dist string, ops int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runEngine(t, mix, dist, ops)
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs) - int64(before.Mallocs)
	}
	const ops = 20000
	for _, shape := range engineShapes {
		short, long := mallocs(shape.mix, shape.dist, ops), mallocs(shape.mix, shape.dist, 2*ops)
		if perOp := float64(long-short) / ops; perOp > 0.01 {
			t.Errorf("%s: %.2f allocations per operation, want 0", shape.name, perOp)
		}
	}
}

// TestLatencyChargesApplyAlone: a recorded latency is the SuE call's and
// nothing else's. apply spins until a monotonic deadline d after it is
// entered and adds up the time it spent. Every recorded latency covers
// the spin and the median is within 5 µs of it, so the end read follows
// apply and the store follows the end read. Inserts of 1,000 fields make
// drawing an operation cost microseconds, so a fresh read taken before
// the batch draw would add a draw's cost to the recorded total per
// operation; what the latencies add up to beyond apply's own time stays
// under half that. A preemption inside apply counts on both sides of that
// difference, so a loaded host does not move it.
func TestLatencyChargesApplyAlone(t *testing.T) {
	const ops = 2000
	sched := Schedule{RecordCount: 100, FieldsPerRecord: 1000, Seed: 3,
		Phases: []Phase{{Mix: Mix{OpInsert: 1}, OperationCount: ops}}}
	g, err := NewScheduleGenerator(sched, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var batch [opBatch]Op
	drawStart := time.Now()
	for g.NextBatch(batch[:]) > 0 {
	}
	draw := time.Since(drawStart) / ops
	for _, d := range []time.Duration{2 * time.Microsecond, 20 * time.Microsecond} {
		for _, threads := range []int{1, 2} {
			var own atomic.Int64
			sm, err := RunSchedule(sched, threads, func(Op) error {
				start := time.Now()
				for {
					if spent := time.Since(start); spent >= d {
						own.Add(int64(spent))
						return nil
					}
				}
			}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			lat := sm.Total.Latency
			if lat.Count != ops {
				t.Fatalf("d=%v threads=%d: %d latencies, want %d", d, threads, lat.Count, ops)
			}
			if lat.Min < int64(d) {
				t.Errorf("d=%v threads=%d: a latency of %v is shorter than the call", d, threads, time.Duration(lat.Min))
			}
			if lat.P50 > int64(d+5*time.Microsecond) {
				t.Errorf("d=%v threads=%d: p50 %v, want at most d+5µs", d, threads, time.Duration(lat.P50))
			}
			if extra := time.Duration(lat.Mean - float64(own.Load())/ops); extra > draw/2 {
				t.Errorf("d=%v threads=%d: latencies exceed the calls by %v an operation, and a draw costs %v: the batch draw is timed",
					d, threads, extra, draw)
			}
		}
	}
}

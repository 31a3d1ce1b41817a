package workload

import (
	"fmt"
	"sync"
	"time"

	"chronos/internal/metrics"
)

// PhaseMeasurement is the per-phase slice of a schedule run.
type PhaseMeasurement struct {
	// Index is the phase's position in the schedule.
	Index int
	// Name is the phase name.
	Name string
	// Measurements carries the phase's throughput/latency bundle.
	Measurements metrics.Measurements
	// Duration is the phase's wall window (first worker in to last
	// worker out).
	Duration time.Duration
}

// ScheduleMeasurements bundles whole-run and per-phase measurements.
type ScheduleMeasurements struct {
	Total  metrics.Measurements
	Phases []PhaseMeasurement
}

// RunSchedule drives a schedule with the given number of worker threads,
// applying each generated operation through apply. It is the generic run
// loop every SUT agent shares; only apply differs per engine.
//
// Correctness properties (each had a bug in the loop this replaces):
//   - exactly the schedule's op-bounded volume executes: the
//     total%threads remainder is distributed over workers, and
//     threads > total leaves the surplus workers idle instead of
//     over-running;
//   - progress (may be nil) receives only *completed* operation counts,
//     so an aborted run never reports work that did not happen;
//   - every worker draws from its own partition of the insert keyspace,
//     so concurrent inserts never collide.
//
// Each worker draws up to 64 operations of one phase (NextBatch), takes a
// fresh monotonic clock read and then applies them back to back with one
// read after each: an operation's latency runs from the previous read to
// its own end read, and between the two the loop only stores the previous
// latency and counts its error. Histograms are recorded and progress is
// reported after the batch. A phase bounded by wall time or paced to a
// rate draws one operation per batch; its deadline check reuses the end
// read, and a pacing sleep is followed by a fresh one.
//
// abortErr (may be nil) is polled by every worker between batches, so
// concurrently, and stops workers when non-nil. Rate-curved phases pace
// workers by accumulating sleep debt and flushing it at millisecond
// granularity.
func RunSchedule(sched Schedule, threads int, apply func(Op) error, progress func(done, total int64), abortErr func() error) (ScheduleMeasurements, error) {
	if threads < 1 {
		return ScheduleMeasurements{}, fmt.Errorf("workload: %d threads", threads)
	}
	sched = sched.WithDefaults()
	if err := sched.Validate(); err != nil {
		return ScheduleMeasurements{}, err
	}
	nPhases := len(sched.Phases)

	// Progress denominator: the op-bounded volume (duration-bounded
	// phases contribute an unknowable count; done is clamped to total so
	// callers dividing by it see a monotonic 0-100%).
	progressTotal, _ := sched.TotalOperations()
	if progressTotal < 1 {
		progressTotal = 1
	}

	// Per-phase wall windows shared across workers: first enter starts
	// the window, every leave extends it.
	type window struct {
		started    bool
		start, end time.Time
	}
	windows := make([]window, nPhases)
	var winMu sync.Mutex
	enter := func(p int) {
		winMu.Lock()
		if !windows[p].started {
			windows[p].started = true
			windows[p].start = time.Now()
		}
		winMu.Unlock()
	}
	leave := func(p int) {
		winMu.Lock()
		if t := time.Now(); t.After(windows[p].end) {
			windows[p].end = t
		}
		winMu.Unlock()
	}

	// A worker records each latency once, into its phase's histogram for
	// the operation's type; phase and run histograms are merged from
	// those at the end, and Merge is exact.
	type phaseOut struct {
		perOp  perOpHists
		errors int64
		done   int64
	}
	outs := make([][]phaseOut, threads)
	genErrs := make([]error, threads)

	var doneOps int64
	var doneMu sync.Mutex
	report := func(n int64) {
		doneMu.Lock()
		doneOps += n
		if progress != nil {
			d := doneOps
			if d > progressTotal {
				d = progressTotal
			}
			progress(d, progressTotal)
		}
		doneMu.Unlock()
	}

	runStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]phaseOut, nPhases)
			outs[w] = out
			gen, err := NewScheduleGenerator(sched, w, threads)
			if err != nil {
				genErrs[w] = err
				return
			}

			var ops [opBatch]Op
			var lats [opBatch]int64
			cur := gen.PhaseIndex()
			enter(cur)
			defer func() { leave(cur) }()
			// Clock reads are offsets from runStart: time.Since reads the
			// monotonic clock alone.
			phaseStart := time.Since(runStart)
			var debt time.Duration
			var executed int64 // completed ops not yet reported
			defer func() { report(executed) }()

			for {
				n := gen.NextBatch(ops[:])
				if n == 0 {
					return
				}
				if p := ops[0].Phase; p != cur {
					leave(cur)
					cur = p
					enter(cur)
					phaseStart = time.Since(runStart)
					debt = 0
				}
				ph, po := &sched.Phases[cur], &out[cur]

				// One monotonic clock read per operation: an operation's
				// end is the next one's start. The batch, payloads
				// included, is drawn before the fresh read that opens it,
				// and between one end read and the next apply the loop
				// only stores the latency and counts an error.
				prev := time.Since(runStart)
				for i := range ops[:n] {
					err := apply(ops[i])
					now := time.Since(runStart)
					lats[i] = int64(now - prev)
					prev = now
					if err != nil {
						po.errors++
					}
				}
				for i := range ops[:n] {
					k := ops[i].kind
					h := po.perOp[k]
					if h == nil {
						h = &metrics.Histogram{}
						po.perOp[k] = h
					}
					h.Record(lats[i])
				}
				po.done += int64(n)
				executed += int64(n)

				// A wall-bounded or paced phase draws one op a batch, so
				// prev is its end. Arrival-rate pacing accumulates the
				// op's target interval and sleeps once the debt is
				// schedulable; a sleep is followed by a fresh read.
				if ph.Rate.Throttled() {
					var f float64
					if d := ph.Duration; d > 0 {
						f = float64(prev-phaseStart) / float64(d)
					} else {
						f = gen.PhaseFraction()
					}
					if r := ph.Rate.At(f); r > 0 {
						debt += time.Duration(float64(time.Second) * float64(threads) / r)
						if debt >= time.Millisecond {
							time.Sleep(debt)
							debt = 0
							prev = time.Since(runStart)
						}
					}
				}
				// Runner-side advance for duration-bounded phases: the
				// generator cannot see wall time.
				if d := ph.Duration; d > 0 && prev-phaseStart >= d && !gen.AdvancePhase() {
					return
				}

				if executed >= opBatch {
					report(executed)
					executed = 0
					if abortErr != nil && abortErr() != nil {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(runStart)
	for _, err := range genErrs {
		if err != nil {
			return ScheduleMeasurements{}, err
		}
	}

	// Merge worker histograms phase-wise per type, then types into the
	// phase and phases into the whole-run totals.
	var sm ScheduleMeasurements
	var allHist metrics.Histogram
	var allPerOp perOpHists
	for p := 0; p < nPhases; p++ {
		var perOp perOpHists
		pm := PhaseMeasurement{Index: p, Name: sched.Phases[p].Name}
		for w := range outs {
			if outs[w] == nil {
				continue
			}
			o := &outs[w][p]
			pm.Measurements.Errors += o.errors
			pm.Measurements.Operations += o.done
			perOp.merge(&o.perOp)
		}
		var ph metrics.Histogram
		for _, h := range perOp {
			ph.Merge(h)
		}
		if windows[p].started && windows[p].end.After(windows[p].start) {
			pm.Duration = windows[p].end.Sub(windows[p].start)
		}
		if pm.Duration > 0 {
			pm.Measurements.Throughput = float64(pm.Measurements.Operations) / pm.Duration.Seconds()
		}
		pm.Measurements.Latency = ph.Snapshot()
		pm.Measurements.PerOperation = perOp.snapshots()
		allHist.Merge(&ph)
		allPerOp.merge(&perOp)
		sm.Total.Errors += pm.Measurements.Errors
		sm.Total.Operations += pm.Measurements.Operations
		sm.Phases = append(sm.Phases, pm)
	}
	if el := elapsed.Seconds(); el > 0 {
		sm.Total.Throughput = float64(sm.Total.Operations) / el
	}
	sm.Total.Latency = allHist.Snapshot()
	sm.Total.PerOperation = allPerOp.snapshots()
	return sm, nil
}

// opBatch is how many operations a worker draws at once: enough that the
// draw, the histogram records and the progress report between batches stay
// out of the timed stretch, small enough that the batch's payload slots
// stay in cache.
const opBatch = 64

// perOpHists holds one latency histogram per operation type, indexed by
// the type's ordinal (Op.kind); a type that never occurred stays nil.
type perOpHists [len(opTypes)]*metrics.Histogram

// merge adds o's histograms into hs.
func (hs *perOpHists) merge(o *perOpHists) {
	for i, h := range o {
		if h == nil {
			continue
		}
		if hs[i] == nil {
			hs[i] = &metrics.Histogram{}
		}
		hs[i].Merge(h)
	}
}

// snapshots freezes the histograms of the types that occurred, keyed by
// operation name as result documents carry them.
func (hs *perOpHists) snapshots() map[string]metrics.Snapshot {
	out := make(map[string]metrics.Snapshot, len(hs))
	for i, h := range hs {
		if h != nil {
			out[string(opTypes[i])] = h.Snapshot()
		}
	}
	return out
}

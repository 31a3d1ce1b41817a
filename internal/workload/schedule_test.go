package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"sync/atomic"
	"testing"
	"time"
)

// threePhaseSchedule is the drift shape used across the tests: mix
// shift, then an arrival ramp, then insert-heavy growth.
func threePhaseSchedule(records int64, seed int64) Schedule {
	return Schedule{
		Name:        "drift",
		RecordCount: records,
		Seed:        seed,
		Phases: []Phase{
			{Name: "steady", Mix: Mix{OpRead: 0.95, OpUpdate: 0.05}, Distribution: "zipfian", OperationCount: 900},
			{Name: "shift", Mix: Mix{OpRead: 0.5, OpUpdate: 0.5}, Distribution: "uniform", OperationCount: 700,
				Rate: RateCurve{Shape: RateRamp, StartOPS: 50_000, EndOPS: 500_000}},
			{Name: "surge", Mix: Mix{OpInsert: 0.4, OpRead: 0.6}, Distribution: "latest", OperationCount: 500,
				GrowDomain: true},
		},
	}
}

func TestScheduleValidate(t *testing.T) {
	good := threePhaseSchedule(100, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schedule{
		{RecordCount: 0, Phases: []Phase{{Mix: Mix{OpRead: 1}, OperationCount: 1}}},
		{RecordCount: 10},
		{RecordCount: 10, Phases: []Phase{{Mix: Mix{OpRead: 1}, OperationCount: -1}}},
		{RecordCount: 10, Phases: []Phase{{Mix: Mix{OpRead: 1}, OperationCount: 5, Duration: time.Second}}},
		{RecordCount: 10, Phases: []Phase{{Mix: Mix{}, OperationCount: 5}}},
		{RecordCount: 10, Phases: []Phase{{Mix: Mix{OpRead: 1}, OperationCount: 5, Distribution: "pareto"}}},
		{RecordCount: 10, Phases: []Phase{{Mix: Mix{OpRead: 1}, OperationCount: 5, Rate: RateCurve{Shape: "sawtooth", StartOPS: 1}}}},
		{RecordCount: 10, FieldLength: -1, Phases: []Phase{{Mix: Mix{OpRead: 1}, OperationCount: 5}}},
	}
	for i := range bad {
		// WithDefaults never touches the deliberately broken knobs.
		s := bad[i].WithDefaults()
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestConfigValidateNegativeKnobs(t *testing.T) {
	base := Config{Name: "A", RecordCount: 100, OperationCount: 100,
		Mix: Mix{OpRead: 0.5, OpUpdate: 0.5}, Distribution: "zipfian"}.WithDefaults()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"FieldsPerRecord", func(c *Config) { c.FieldsPerRecord = -1 }},
		{"FieldLength", func(c *Config) { c.FieldLength = -200 }},
		{"MaxScanLength", func(c *Config) { c.MaxScanLength = -3 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: negative value accepted", tc.name)
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %v is not a *FieldError", tc.name, err)
		}
		if fe.Field != tc.name {
			t.Fatalf("FieldError.Field = %q, want %q", fe.Field, tc.name)
		}
		// The generator constructor must refuse too (it used to panic
		// later inside rand.IntN instead).
		if _, err := NewScheduleGenerator(cfg.Schedule(), 0, 1); err == nil {
			t.Fatalf("%s: NewScheduleGenerator accepted negative knob", tc.name)
		}
	}
}

// TestDegenerateScheduleMatchesGenerator pins the compatibility contract:
// a config's one-phase schedule draws the byte-identical stream the static
// generator it replaced always drew, for every distribution, and past the
// configured operation count too. The digest was taken from that
// generator.
func TestDegenerateScheduleMatchesGenerator(t *testing.T) {
	const golden = "30ddbe0d6786f65c7b14e6382a4807fa60b09c1b05529b4adf579519cbc2fd1e"
	h := sha256.New()
	for _, dist := range []string{"zipfian", "uniform", "latest", "sequential"} {
		cfg := Config{
			Name: "compat", RecordCount: 500, OperationCount: 1000,
			Mix:          Mix{OpRead: 1, OpUpdate: 1, OpInsert: 1, OpScan: 1, OpReadModifyWrite: 1},
			Distribution: dist, Seed: 77,
		}.WithDefaults()
		sg, err := NewScheduleGenerator(cfg.Schedule(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			op, ok := sg.Next()
			if !ok {
				op = sg.emit(sg.slot(0))
			}
			digestOp(h, op)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Fatalf("one-phase stream digest = %s, want %s", got, golden)
	}
}

// digestOp adds everything a SUT sees of op to h.
func digestOp(h hash.Hash, op Op) {
	num := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	str := func(s string) { num(int64(len(s))); h.Write([]byte(s)) }
	num(int64(op.Phase))
	str(string(op.Type))
	str(op.Key())
	num(op.KeyIndex)
	num(int64(op.ScanLength))
	num(int64(len(op.Fields)))
	for _, f := range op.Fields {
		str(f.Name)
		str(string(f.Value))
	}
}

// sameOp compares everything the SUT sees, fields included.
func sameOp(a, b Op) bool {
	if a.Type != b.Type || a.Key() != b.Key() || a.KeyIndex != b.KeyIndex ||
		a.ScanLength != b.ScanLength || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i, f := range a.Fields {
		if f.Name != b.Fields[i].Name || !bytes.Equal(f.Value, b.Fields[i].Value) {
			return false
		}
	}
	return true
}

// TestSeededReplayAcrossPhases is the phase-engine determinism gate:
// same seed => byte-identical op stream across every phase boundary, for
// every worker; a different seed must diverge.
func TestSeededReplayAcrossPhases(t *testing.T) {
	const workers = 3
	sched := threePhaseSchedule(200, 42)
	for w := 0; w < workers; w++ {
		g1, err := NewScheduleGenerator(sched, w, workers)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := NewScheduleGenerator(sched, w, workers)
		if err != nil {
			t.Fatal(err)
		}
		phasesSeen := map[int]int64{}
		for i := 0; ; i++ {
			a, ok1 := g1.Next()
			b, ok2 := g2.Next()
			if ok1 != ok2 {
				t.Fatalf("worker %d: replay lengths diverged at op %d", w, i)
			}
			if !ok1 {
				break
			}
			if a.Phase != b.Phase || !sameOp(a, b) {
				t.Fatalf("worker %d: replay diverged at op %d: %+v vs %+v", w, i, a, b)
			}
			phasesSeen[a.Phase]++
		}
		if len(phasesSeen) != 3 {
			t.Fatalf("worker %d crossed %d phases, want 3 (%v)", w, len(phasesSeen), phasesSeen)
		}
	}
	// A different seed must produce a different stream.
	other := sched
	other.Seed = 43
	g1, _ := NewScheduleGenerator(sched, 0, workers)
	g2, _ := NewScheduleGenerator(other, 0, workers)
	same := true
	for i := 0; i < 200; i++ {
		a, _ := g1.Next()
		b, _ := g2.Next()
		if !sameOp(a, b) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds replayed the same stream")
	}
}

// TestSeededStreamGolden is the mechanical form of "byte-identical": a
// digest of everything a SUT sees of the first 10,000 operations of each
// of two workers, compared with a constant. Work on the run loop (pacing,
// timing, result plumbing) must leave it alone; a change to what the
// generator draws has to change the constant and say so. The schedule is
// threePhaseSchedule(200, 42) with every phase ten times as long, so that
// 10,000 operations per worker cross all three phases.
func TestSeededStreamGolden(t *testing.T) {
	const golden = "2e7f074f975f7b6b65a0490348951c080c1531f9dbfc383dc00c7dcb5deeb41a"
	sched := threePhaseSchedule(200, 42)
	for i := range sched.Phases {
		sched.Phases[i].OperationCount *= 10
	}
	h := sha256.New()
	for w := 0; w < 2; w++ {
		g, err := NewScheduleGenerator(sched, w, 2)
		if err != nil {
			t.Fatal(err)
		}
		phases := map[int]bool{}
		for i := 0; i < 10000; i++ {
			op, ok := g.Next()
			if !ok {
				t.Fatalf("worker %d: stream ended after %d operations", w, i)
			}
			phases[op.Phase] = true
			digestOp(h, op)
		}
		if len(phases) != 3 {
			t.Fatalf("worker %d crossed %d phases, want 3", w, len(phases))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Fatalf("seeded stream digest = %s, want %s", got, golden)
	}
}

// TestPayloadPoolReadOnly: the engine builds a generator's pool once and
// never writes to it again, whatever it draws afterwards, and a payload
// cannot be grown into its neighbour's bytes.
func TestPayloadPoolReadOnly(t *testing.T) {
	sched := Config{
		RecordCount: 100, OperationCount: 1,
		Mix:          Mix{OpRead: 1, OpUpdate: 1, OpInsert: 1, OpScan: 1, OpReadModifyWrite: 1},
		Distribution: "zipfian", Seed: 9,
	}.Schedule()
	g, err := NewScheduleGenerator(sched, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.pool != nil {
		t.Fatal("pool built before the first payload draw")
	}
	g.OneField()
	if len(g.pool) != poolSpan+g.sched.FieldLength {
		t.Fatalf("pool is %d bytes, want %d", len(g.pool), poolSpan+g.sched.FieldLength)
	}
	sum := crc32.ChecksumIEEE(g.pool)
	for i := 0; i < 20000; i++ {
		op := g.emit(g.slot(0))
		for _, f := range op.Fields {
			if grown := append(f.Value, 'X'); &grown[0] == &f.Value[0] {
				t.Fatalf("op %d: appending to a payload wrote into the pool", i)
			}
		}
	}
	if crc32.ChecksumIEEE(g.pool) != sum {
		t.Fatal("drawing operations changed the pool")
	}
}

// TestValidateBuildsNoChooser: validation checks a distribution by name.
// Building the chooser to find out is a zeta sum over the whole key
// domain, which at this record count never returns.
func TestValidateBuildsNoChooser(t *testing.T) {
	done := make(chan error, 2)
	go func() {
		s := Schedule{RecordCount: 1 << 40, Phases: []Phase{
			{Mix: Mix{OpRead: 1}, Distribution: "zipfian", OperationCount: 1},
			{Mix: Mix{OpRead: 1}, Distribution: "latest", OperationCount: 1},
		}}.WithDefaults()
		done <- s.Validate()
		c := Config{RecordCount: 1 << 40, OperationCount: 1, Mix: Mix{OpRead: 1}, Distribution: "latest"}
		done <- c.Validate()
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Validate is still summing zeta over 2^40 records")
		}
	}
	s := Schedule{RecordCount: 10, Phases: []Phase{{Mix: Mix{OpRead: 1}, Distribution: "pareto", OperationCount: 1}}}
	if err := s.Validate(); err == nil || err.Error() != `phase 0: workload: unknown distribution "pareto"` {
		t.Fatalf("unknown distribution: %v", err)
	}
	c := Config{RecordCount: 10, Mix: Mix{OpRead: 1}, Distribution: "pareto"}
	if err := c.Validate(); err == nil || err.Error() != `workload: unknown distribution "pareto"` {
		t.Fatalf("unknown distribution: %v", err)
	}
	if _, err := NewChooser("pareto", 10); err == nil || err.Error() != `workload: unknown distribution "pareto"` {
		t.Fatalf("unknown distribution: %v", err)
	}
}

// TestScheduleShareDistribution pins the remainder math: the per-worker
// shares must sum to exactly the phase volume, with no over-run when
// workers outnumber operations.
func TestScheduleShareDistribution(t *testing.T) {
	cases := []struct {
		ops     int64
		workers int
	}{
		{10, 4}, {4001, 4}, {3, 8}, {1000, 7}, {1, 16}, {0, 3},
	}
	for _, tc := range cases {
		sched := Schedule{
			RecordCount: 50, Seed: 9,
			Phases: []Phase{{Mix: Mix{OpRead: 1}, Distribution: "uniform", OperationCount: tc.ops}},
		}
		var total int64
		for w := 0; w < tc.workers; w++ {
			g, err := NewScheduleGenerator(sched, w, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok := g.Next(); !ok {
					break
				}
				total++
			}
		}
		if total != tc.ops {
			t.Errorf("ops=%d workers=%d: generated %d", tc.ops, tc.workers, total)
		}
	}
}

// TestInsertKeyspacePartitioned is the duplicate-insert-key regression
// gate: concurrent workers must never generate the same insert key.
func TestInsertKeyspacePartitioned(t *testing.T) {
	const workers = 4
	sched := Schedule{
		RecordCount: 100, Seed: 13,
		Phases: []Phase{{
			Mix: Mix{OpInsert: 0.5, OpRead: 0.5}, Distribution: "latest",
			OperationCount: 4000, GrowDomain: true,
		}},
	}
	seen := map[int64]int{}
	for w := 0; w < workers; w++ {
		g, err := NewScheduleGenerator(sched, w, workers)
		if err != nil {
			t.Fatal(err)
		}
		for {
			op, ok := g.Next()
			if !ok {
				break
			}
			if op.Type != OpInsert {
				continue
			}
			if prev, dup := seen[op.KeyIndex]; dup {
				t.Fatalf("workers %d and %d both inserted key %d", prev, w, op.KeyIndex)
			}
			seen[op.KeyIndex] = w
			if op.KeyIndex < sched.RecordCount {
				t.Fatalf("insert key %d collides with the loaded range", op.KeyIndex)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no inserts generated")
	}
}

func TestLatestGrowTo(t *testing.T) {
	l := NewLatest(100)
	l.GrowTo(50) // lower than current: ignored
	l.GrowTo(300)
	l.GrowTo(300) // idempotent
	r := testRand(5)
	for i := 0; i < 2000; i++ {
		k := l.Next(r)
		if k < 0 || k >= 300 {
			t.Fatalf("grown latest out of bounds: %d", k)
		}
	}
	// The grown range must actually be drawn from.
	hitNew := false
	for i := 0; i < 5000 && !hitNew; i++ {
		hitNew = l.Next(r) >= 100
	}
	if !hitNew {
		t.Fatal("GrowTo never exposed the new keys")
	}
}

func TestRateCurveShapes(t *testing.T) {
	ramp := RateCurve{Shape: RateRamp, StartOPS: 100, EndOPS: 1100}
	if got := ramp.At(0); got != 100 {
		t.Fatalf("ramp.At(0) = %v", got)
	}
	if got := ramp.At(1); got != 1100 {
		t.Fatalf("ramp.At(1) = %v", got)
	}
	if got := ramp.At(0.5); got != 600 {
		t.Fatalf("ramp.At(0.5) = %v", got)
	}
	spike := RateCurve{Shape: RateSpike, StartOPS: 100, EndOPS: 5000}
	if got := spike.At(0.1); got != 100 {
		t.Fatalf("spike.At(0.1) = %v", got)
	}
	if got := spike.At(0.5); got != 5000 {
		t.Fatalf("spike.At(0.5) = %v", got)
	}
	if (RateCurve{}).Throttled() {
		t.Fatal("zero curve claims to throttle")
	}
}

func TestParseEncodeScheduleRoundTrip(t *testing.T) {
	spec := "phase=warm,ops=2000,mix=read:95+update:5,dist=zipfian;" +
		"phase=surge,dur=2s,mix=insert:50+read:50,dist=latest,rate=ramp:500:5000,grow=1"
	phases, err := ParseSchedulePhases(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("parsed %d phases", len(phases))
	}
	p0, p1 := phases[0], phases[1]
	if p0.Name != "warm" || p0.OperationCount != 2000 || p0.Mix[OpRead] != 95 || p0.Distribution != "zipfian" {
		t.Fatalf("phase 0 = %+v", p0)
	}
	if p1.Duration != 2*time.Second || !p1.GrowDomain || p1.Rate.Shape != RateRamp ||
		p1.Rate.StartOPS != 500 || p1.Rate.EndOPS != 5000 {
		t.Fatalf("phase 1 = %+v", p1)
	}
	// Encode -> parse must round-trip.
	back, err := ParseSchedulePhases(EncodeSchedulePhases(phases))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", phases) {
		t.Fatalf("round trip changed phases:\n%+v\n%+v", phases, back)
	}

	for _, bad := range []string{
		"", "ops", "ops=ten", "dur=fast", "mix=read", "mix=read:x",
		"rate=ramp", "rate=ramp:x", "turbo=1",
	} {
		if _, err := ParseSchedulePhases(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestRunScheduleExactCount is the remainder-drop regression gate: the
// run must execute exactly the schedule volume for awkward thread/op
// combinations (the old loop dropped total%threads and over-ran when
// threads > total).
func TestRunScheduleExactCount(t *testing.T) {
	cases := []struct {
		ops     int64
		threads int
	}{
		{4000, 4}, {4001, 4}, {3, 8}, {1000, 7}, {1, 16},
	}
	for _, tc := range cases {
		sched := Schedule{
			RecordCount: 50, Seed: 3,
			Phases: []Phase{{Mix: Mix{OpRead: 1}, Distribution: "uniform", OperationCount: tc.ops}},
		}
		var applied atomic.Int64
		sm, err := RunSchedule(sched, tc.threads, func(Op) error {
			applied.Add(1)
			return nil
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if applied.Load() != tc.ops {
			t.Errorf("ops=%d threads=%d: applied %d", tc.ops, tc.threads, applied.Load())
		}
		if sm.Total.Operations != tc.ops {
			t.Errorf("ops=%d threads=%d: measured %d", tc.ops, tc.threads, sm.Total.Operations)
		}
	}
}

// TestRunScheduleProgressCountsCompletedOps is the progress-over-count
// regression gate: progress must never report more work than has
// actually completed, in particular across an abort.
func TestRunScheduleProgressCountsCompletedOps(t *testing.T) {
	sched := Schedule{
		RecordCount: 50, Seed: 3,
		Phases: []Phase{{Mix: Mix{OpRead: 1}, Distribution: "uniform", OperationCount: 1_000_000}},
	}
	var applied atomic.Int64
	var lastDone, lastTotal int64
	abort := errors.New("stop")
	var calls atomic.Int32 // every worker polls abort
	sm, err := RunSchedule(sched, 3, func(Op) error {
		applied.Add(1)
		return nil
	}, func(done, total int64) {
		if done < lastDone {
			t.Errorf("progress went backwards: %d -> %d", lastDone, done)
		}
		if done > applied.Load() {
			t.Errorf("progress %d exceeds completed ops %d", done, applied.Load())
		}
		lastDone, lastTotal = done, total
	}, func() error {
		if calls.Add(1) > 6 {
			return abort
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Total.Operations >= 1_000_000 {
		t.Fatal("abort did not stop the run")
	}
	if sm.Total.Operations != applied.Load() {
		t.Fatalf("measured %d ops, applied %d", sm.Total.Operations, applied.Load())
	}
	if lastDone > sm.Total.Operations {
		t.Fatalf("final progress %d exceeds executed ops %d", lastDone, sm.Total.Operations)
	}
	if lastTotal != 1_000_000 {
		t.Fatalf("progress total = %d", lastTotal)
	}
}

// TestRunSchedulePerPhaseMeasurements checks per-phase result slicing:
// phase volumes, names and latency snapshots survive the merge.
func TestRunSchedulePerPhaseMeasurements(t *testing.T) {
	sched := threePhaseSchedule(200, 21)
	sched.Phases[1].Rate = RateCurve{} // unthrottled: keep the test fast
	var inserts atomic.Int64
	sm, err := RunSchedule(sched, 4, func(op Op) error {
		if op.Type == OpInsert {
			inserts.Add(1)
		}
		return nil
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Phases) != 3 {
		t.Fatalf("phases = %d", len(sm.Phases))
	}
	wantOps := []int64{900, 700, 500}
	wantNames := []string{"steady", "shift", "surge"}
	for i, pm := range sm.Phases {
		if pm.Name != wantNames[i] || pm.Index != i {
			t.Fatalf("phase %d = %q/%d", i, pm.Name, pm.Index)
		}
		if pm.Measurements.Operations != wantOps[i] {
			t.Fatalf("phase %d ops = %d, want %d", i, pm.Measurements.Operations, wantOps[i])
		}
		if int64(pm.Measurements.Latency.Count) != wantOps[i] {
			t.Fatalf("phase %d latency count = %d", i, pm.Measurements.Latency.Count)
		}
		if pm.Duration <= 0 {
			t.Fatalf("phase %d duration = %v", i, pm.Duration)
		}
	}
	if sm.Total.Operations != 2100 {
		t.Fatalf("total ops = %d", sm.Total.Operations)
	}
	if inserts.Load() == 0 {
		t.Fatal("surge phase generated no inserts")
	}
	if got := int64(sm.Phases[2].Measurements.PerOperation["insert"].Count); got != inserts.Load() {
		t.Fatalf("surge insert count = %d, want %d", got, inserts.Load())
	}
}

// TestRunScheduleDurationPhase drives a wall-time-bounded phase: the
// runner must advance out of it and finish the op-bounded tail.
func TestRunScheduleDurationPhase(t *testing.T) {
	sched := Schedule{
		RecordCount: 50, Seed: 5,
		Phases: []Phase{
			{Name: "timed", Mix: Mix{OpRead: 1}, Distribution: "uniform", Duration: 30 * time.Millisecond},
			{Name: "tail", Mix: Mix{OpUpdate: 1}, Distribution: "uniform", OperationCount: 100},
		},
	}
	sm, err := RunSchedule(sched, 2, func(Op) error { return nil }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Phases) != 2 {
		t.Fatalf("phases = %d", len(sm.Phases))
	}
	if sm.Phases[0].Measurements.Operations == 0 {
		t.Fatal("timed phase ran no ops")
	}
	if sm.Phases[1].Measurements.Operations != 100 {
		t.Fatalf("tail ops = %d", sm.Phases[1].Measurements.Operations)
	}
	if sm.Phases[0].Duration < 20*time.Millisecond {
		t.Fatalf("timed phase lasted only %v", sm.Phases[0].Duration)
	}
}

// TestRunScheduleRatePacing: a tightly throttled phase must take at
// least roughly its nominal time (ops / rate).
func TestRunScheduleRatePacing(t *testing.T) {
	sched := Schedule{
		RecordCount: 50, Seed: 5,
		Phases: []Phase{{
			Name: "slow", Mix: Mix{OpRead: 1}, Distribution: "uniform",
			OperationCount: 200, Rate: RateCurve{Shape: RateConstant, StartOPS: 2000},
		}},
	}
	start := time.Now()
	sm, err := RunSchedule(sched, 2, func(Op) error { return nil }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 200 ops at 2000 ops/s is nominally 100ms; allow generous slack
	// downwards for coarse sleeps but reject an unthrottled blast.
	if elapsed < 50*time.Millisecond {
		t.Fatalf("throttled run finished in %v", elapsed)
	}
	if sm.Total.Operations != 200 {
		t.Fatalf("ops = %d", sm.Total.Operations)
	}
}

// FuzzParseSchedulePhases: the phase DSL arrives as an untrusted job
// parameter. Parsing it never panics, and whatever it accepts survives
// EncodeSchedulePhases and a second parse unchanged.
func FuzzParseSchedulePhases(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		phases, err := ParseSchedulePhases(spec)
		if err != nil {
			return
		}
		enc := EncodeSchedulePhases(phases)
		back, err := ParseSchedulePhases(enc)
		if err != nil {
			t.Fatalf("%q encodes as %q, which does not parse: %v", spec, enc, err)
		}
		if len(back) != len(phases) {
			t.Fatalf("%q encodes as %q: %d phases, want %d", spec, enc, len(back), len(phases))
		}
		for i := range phases {
			if !samePhase(phases[i], back[i]) {
				t.Fatalf("%q encodes as %q: phase %d %+v, want %+v", spec, enc, i, back[i], phases[i])
			}
		}
	})
}

// samePhase compares two phases field by field, floats by value (NaN
// equals NaN).
func samePhase(a, b Phase) bool {
	eq := func(x, y float64) bool { return x == y || (x != x && y != y) }
	if len(a.Mix) != len(b.Mix) {
		return false
	}
	for op, w := range a.Mix {
		if v, ok := b.Mix[op]; !ok || !eq(w, v) {
			return false
		}
	}
	return a.Name == b.Name && a.Distribution == b.Distribution &&
		a.OperationCount == b.OperationCount && a.Duration == b.Duration &&
		a.Rate.Shape == b.Rate.Shape && eq(a.Rate.StartOPS, b.Rate.StartOPS) &&
		eq(a.Rate.EndOPS, b.Rate.EndOPS) && a.GrowDomain == b.GrowDomain
}

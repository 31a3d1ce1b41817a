// Package tsagent is the second system-under-evaluation family of the
// testbed: the tssim append-optimized time-series store. It is one family
// of agent.SimRunner, so it runs the same generated (replayable)
// workloads and dynamic schedules as mongoagent; the package supplies the
// family's parameters and its agent.SUT, which maps the operation stream
// onto time-series verbs:
//
//	update  -> append a sample to a chooser-selected existing series
//	read    -> window query over the recent span of a series; a missing
//	           series is a counted success
//	insert  -> append to a *new* series (cardinality growth)
//	scan    -> window queries across a run of adjacent series
//	rmw     -> latest-sample lookup followed by an append
//
// SystemDefinition declares the parameters. series, points and window
// are the family's own; agent.SimRunner reads the rest as it does for
// every family, series sizing the data set and mix weighing append:window.
package tsagent

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/params"
	"chronos/internal/tssim"
	"chronos/internal/workload"
)

// SystemName is the SuE name registered in Chronos Control.
const SystemName = "timeseries-sim"

// SystemDefinition returns the parameter definitions and result diagrams
// used to register the time-series SuE in Chronos Control.
func SystemDefinition() ([]params.Definition, []core.DiagramSpec) {
	defs := []params.Definition{
		{
			Name: "series", Label: "Series Cardinality", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 1, Max: 1e7, Default: params.Int(1000),
			Description: "distinct series preloaded before the run",
		},
		{
			Name: "points", Label: "Points per Series", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 0, Max: 1e6, Default: params.Int(32),
			Description: "samples preloaded into each series",
		},
		{
			Name: "threads", Label: "Client Threads", Type: params.TypeInterval,
			Min: 1, Max: 128, Default: params.Int(1),
			Description: "number of concurrent benchmark client threads",
		},
		{
			Name: "operations", Label: "Operation Count", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 1, Max: 1e9, Default: params.Int(20000),
			Description: "operations executed in the measured phase",
		},
		{
			Name: "mix", Label: "Append/Window Mix", Type: params.TypeRatio,
			RatioParts: []string{"append", "window"}, Default: params.Ratio(90, 10),
			Description: "proportion of sample appends to window queries",
		},
		{
			Name: "distribution", Label: "Series Distribution", Type: params.TypeValue,
			ValueKind:   params.KindString,
			Options:     []string{"zipfian", "uniform", "latest", "sequential"},
			Default:     params.String_("latest"),
			Description: "series selection distribution (latest skews to recently created series)",
		},
		{
			Name: "window", Label: "Window Span", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 1, Max: 1e6, Default: params.Int(128),
			Description: "query window span in logical ticks",
		},
		{
			Name: "schedule", Label: "Dynamic Schedule", Type: params.TypeValue,
			ValueKind: params.KindString, Default: params.String_(""),
			Description: "phase DSL for dynamic workloads (phase=...,ops=...,mix=op:w+...,dist=...,rate=shape:start:end,grow=1;...); empty runs the static mix",
		},
	}
	diagrams := []core.DiagramSpec{
		{Type: "line", Title: "Throughput vs Cardinality", Metric: "throughput",
			XParam: "series", SeriesParam: "threads"},
		{Type: "bar", Title: "p95 Latency", Metric: "latency_p95_us",
			XParam: "threads", SeriesParam: "series"},
		{Type: "pie", Title: "Operation Mix", Metric: "operations"},
	}
	return defs, diagrams
}

// NewFactory returns an agent.Runner factory whose stores share opts; a
// zero opts.Seed is replaced per job by the job's workload seed. The
// series cardinality is the workload's record count, so choosers address
// the preloaded series.
func NewFactory(opts tssim.Options) func() agent.Runner {
	f := agent.Family{
		Name:       SystemName,
		Definition: SystemDefinition,
		Workload:   "chronos-tsdemo",
		Records:    "series",
		// append -> update, window -> read in the shared op vocabulary.
		Mix:  [2]workload.OpType{workload.OpUpdate, workload.OpRead},
		Open: func(a params.Assignment) (agent.SUT, error) { return open(opts, a) },
	}
	return func() agent.Runner { return &agent.SimRunner{Family: f} }
}

// SeriesName maps a workload key index onto a series name. Indexes below
// the preloaded cardinality address existing series; the generator's
// partitioned insert keyspace yields fresh indexes — and therefore fresh
// series — for cardinality growth.
func SeriesName(i int64) string { return workload.PaddedKey("sensor", i, 9) }

// sut is one store serving one job. The clock orders appended samples
// across the runner's threads.
type sut struct {
	opts   tssim.Options
	window int64
	points int64
	series int64
	db     *tssim.DB
	clock  atomic.Int64
	// handles holds the preloaded series, indexed by key, so an
	// operation on one neither formats a name nor reads the catalogue.
	handles []*tssim.Series
}

// open reads the family's own parameters.
func open(opts tssim.Options, a params.Assignment) (*sut, error) {
	s := &sut{opts: opts, window: a.Int("window", 128), points: a.Int("points", 32)}
	if s.window < 1 {
		return nil, fmt.Errorf("tsagent: window span %d", s.window)
	}
	if s.points < 0 {
		return nil, fmt.Errorf("tsagent: %d points per series", s.points)
	}
	return s, nil
}

// Load opens the store and preloads the configured cardinality.
func (s *sut) Load(rc *agent.RunContext, cfg workload.Config) error {
	opts := s.opts
	if opts.Seed == 0 {
		opts.Seed = cfg.Seed
	}
	s.series = cfg.RecordCount
	s.db = tssim.NewDB(opts)
	rc.Logf("prepare: series=%d points=%d chunk=%d", s.series, s.points, tssim.DefaultChunkPoints)
	s.handles = LoadDB(s.db, &s.clock, s.series, s.points, 8)
	return rc.Err()
}

// WarmUp touches every preloaded series once so the catalogue and chunk
// metadata are resident.
func (s *sut) WarmUp(rc *agent.RunContext) error {
	rc.Logf("warmup: scanning %d series", s.series)
	now := s.clock.Load()
	for i, h := range s.handles {
		if i%1024 == 0 && rc.Err() != nil {
			return rc.Err()
		}
		h.Window(now-s.window, now)
	}
	return nil
}

// Stats reports the cardinality and the store's counters.
func (s *sut) Stats() (map[string]any, string) {
	st := s.db.Stats()
	return map[string]any{
		"cardinality": st.Series,
		"engineStats": map[string]any{
			"series":       st.Series,
			"points":       st.Points,
			"appends":      st.Appends,
			"outOfOrder":   st.OutOfOrder,
			"windows":      st.Windows,
			"windowPoints": st.WindowPoints,
			"chunksSealed": st.ChunksSealed,
		},
	}, fmt.Sprintf(", cardinality=%d", st.Series)
}

// Close releases the store.
func (s *sut) Close() error {
	s.db = nil
	return nil
}

// LoadDB preloads series 0..series-1 with points samples each, advancing
// the shared logical clock, and returns their handles indexed by key.
// Exported for tests and examples that need a loaded store without the
// full agent workflow.
func LoadDB(db *tssim.DB, clock *atomic.Int64, series, points int64, loaders int) []*tssim.Series {
	if loaders < 1 {
		loaders = 1
	}
	// Series exist even with zero preloaded points, so window queries
	// against the preloaded cardinality never miss.
	handles := make([]*tssim.Series, series)
	for i := range handles {
		handles[i] = db.Series(SeriesName(int64(i)))
	}
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := int64(l); i < series; i += int64(loaders) {
				for p := int64(0); p < points; p++ {
					ts := clock.Add(1)
					handles[i].Append(ts, float64(ts%997))
				}
			}
		}(l)
	}
	wg.Wait()
	// With zero preloaded points each series still holds one sample, so
	// a latest-sample lookup on it finds one.
	if points == 0 {
		for _, h := range handles {
			h.Append(clock.Add(1), 0)
		}
	}
	return handles
}

// handle is the preloaded series key i addresses, or nil for a key past
// the preload (cardinality growth), which goes through the catalogue.
func (s *sut) handle(i int64) *tssim.Series {
	if uint64(i) < uint64(len(s.handles)) {
		return s.handles[i]
	}
	return nil
}

// name is the series an operation's key addresses: a preloaded one's
// from its handle, a key past the preload formatted.
func (s *sut) name(i int64) string {
	if h := s.handle(i); h != nil {
		return h.Name()
	}
	return SeriesName(i)
}

// Apply maps one generated operation onto the time-series API.
func (s *sut) Apply(op workload.Op) error {
	switch op.Type {
	case workload.OpUpdate, workload.OpInsert:
		// update appends to an existing series; insert's partitioned key
		// index lands beyond the preload, creating a new series.
		s.append(op.KeyIndex)
		return nil
	case workload.OpRead:
		now := s.clock.Load()
		if h := s.handle(op.KeyIndex); h != nil {
			h.Window(now-s.window, now)
			return nil
		}
		_, err := s.db.Window(SeriesName(op.KeyIndex), now-s.window, now)
		return ignoreMissing(err)
	case workload.OpScan:
		// A scan walks a run of adjacent series in the catalogue and
		// windows each, like a multi-metric dashboard panel.
		now := s.clock.Load()
		for _, n := range s.db.SeriesNames(s.name(op.KeyIndex), op.ScanLength) {
			if _, err := s.db.Window(n, now-s.window, now); err != nil {
				return err
			}
		}
		return nil
	case workload.OpReadModifyWrite:
		if h := s.handle(op.KeyIndex); h != nil {
			h.Latest()
		} else if _, err := s.db.Latest(SeriesName(op.KeyIndex)); err != nil && !errors.Is(err, tssim.ErrNoSeries) {
			return err
		}
		s.append(op.KeyIndex)
		return nil
	default:
		return fmt.Errorf("tsagent: unknown op %q", op.Type)
	}
}

// append adds a sample stamped by the shared clock to the series key i
// addresses.
func (s *sut) append(i int64) {
	ts := s.clock.Add(1)
	if h := s.handle(i); h != nil {
		h.Append(ts, float64(ts%997))
		return
	}
	s.db.Append(SeriesName(i), ts, float64(ts%997))
}

// ignoreMissing drops no-such-series errors: under the latest
// distribution a chooser can race a series-creating insert, which the
// benchmark counts as a success-with-miss.
func ignoreMissing(err error) error {
	if errors.Is(err, tssim.ErrNoSeries) {
		return nil
	}
	return err
}

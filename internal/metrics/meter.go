package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ManualClock is a test clock advanced explicitly: pass its Now
// wherever a func() time.Time clock is taken. Safe for concurrent use.
type ManualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewManualClock starts a manual clock at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now returns the current manual time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// PhaseTimer measures the named phases of an evaluation run — the paper's
// workflow is set-up, warm-up, execution, analysis — and reports their
// durations. Safe for concurrent use, though phases normally run
// sequentially.
type PhaseTimer struct {
	now func() time.Time

	mu      sync.Mutex
	order   []string
	started map[string]time.Time
	total   map[string]time.Duration
}

// NewPhaseTimer returns a PhaseTimer reading time from now (nil =
// time.Now).
func NewPhaseTimer(now func() time.Time) *PhaseTimer {
	if now == nil {
		now = time.Now
	}
	return &PhaseTimer{
		now:     now,
		started: make(map[string]time.Time),
		total:   make(map[string]time.Duration),
	}
}

// Start begins timing the named phase. Starting an already-running phase
// restarts it.
func (p *PhaseTimer) Start(phase string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, seen := p.total[phase]; !seen {
		if _, running := p.started[phase]; !running {
			p.order = append(p.order, phase)
		}
	}
	p.started[phase] = p.now()
}

// Stop ends the named phase and accumulates its duration. Stopping a
// phase that is not running is a no-op.
func (p *PhaseTimer) Stop(phase string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	start, ok := p.started[phase]
	if !ok {
		return
	}
	delete(p.started, phase)
	p.total[phase] += p.now().Sub(start)
}

// Time runs fn inside a Start/Stop pair for the named phase.
func (p *PhaseTimer) Time(phase string, fn func() error) error {
	p.Start(phase)
	defer p.Stop(phase)
	return fn()
}

// Duration returns the accumulated duration of the named phase.
func (p *PhaseTimer) Duration(phase string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total[phase]
}

// Durations returns all finished phases in first-start order.
func (p *PhaseTimer) Durations() []PhaseDuration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PhaseDuration, 0, len(p.order))
	for _, name := range p.order {
		if d, ok := p.total[name]; ok {
			out = append(out, PhaseDuration{Phase: name, Duration: d})
		}
	}
	return out
}

// PhaseDuration is one row of a PhaseTimer report.
type PhaseDuration struct {
	Phase    string        `json:"phase"`
	Duration time.Duration `json:"durationNs"`
}

// String renders "phase=1.2s".
func (p PhaseDuration) String() string {
	return fmt.Sprintf("%s=%v", p.Phase, p.Duration.Round(time.Millisecond))
}

// Measurements is the bundle of standard metrics a Chronos agent attaches
// to every job result: per-operation latency snapshots and overall
// throughput. It serialises into the result JSON (paper §2.1, Result).
type Measurements struct {
	// Throughput is in operations per second over the execute phase.
	Throughput float64 `json:"throughput"`
	// Operations is the total number of executed operations.
	Operations int64 `json:"operations"`
	// Errors counts failed operations.
	Errors int64 `json:"errors"`
	// Latency summarises the latency distribution over all operations,
	// in nanoseconds.
	Latency Snapshot `json:"latency"`
	// PerOperation breaks latency down by operation type (read, update,
	// insert, scan, ...).
	PerOperation map[string]Snapshot `json:"perOperation,omitempty"`
}

// SortedOperationNames returns the PerOperation keys in sorted order for
// deterministic rendering.
func (m *Measurements) SortedOperationNames() []string {
	names := make([]string, 0, len(m.PerOperation))
	for n := range m.PerOperation {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

package metrics

import (
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

// PhaseDuration is how long one workflow phase of an evaluation run took
// — the paper's workflow is set-up, warm-up, execution, analysis. The
// agent attaches the list to every job result.
type PhaseDuration struct {
	Phase    string        `json:"phase"`
	Duration time.Duration `json:"durationNs"`
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

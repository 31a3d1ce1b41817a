package metrics

import (
	"errors"
	"testing"
	"time"
)

func TestPhaseTimer(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	pt := NewPhaseTimer(clock.Now)
	pt.Start("setup")
	clock.Advance(100 * time.Millisecond)
	pt.Stop("setup")
	pt.Start("execute")
	clock.Advance(time.Second)
	pt.Stop("execute")

	if d := pt.Duration("setup"); d != 100*time.Millisecond {
		t.Fatalf("setup duration = %v", d)
	}
	if d := pt.Duration("execute"); d != time.Second {
		t.Fatalf("execute duration = %v", d)
	}
	ds := pt.Durations()
	if len(ds) != 2 || ds[0].Phase != "setup" || ds[1].Phase != "execute" {
		t.Fatalf("Durations order wrong: %v", ds)
	}
	if ds[1].String() != "execute=1s" {
		t.Fatalf("String = %q", ds[1].String())
	}
}

func TestPhaseTimerStopWithoutStart(t *testing.T) {
	pt := NewPhaseTimer(nil)
	pt.Stop("ghost") // must not panic
	if d := pt.Duration("ghost"); d != 0 {
		t.Fatalf("ghost duration = %v", d)
	}
}

func TestPhaseTimerAccumulates(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	pt := NewPhaseTimer(clock.Now)
	for i := 0; i < 3; i++ {
		pt.Start("warmup")
		clock.Advance(50 * time.Millisecond)
		pt.Stop("warmup")
	}
	if d := pt.Duration("warmup"); d != 150*time.Millisecond {
		t.Fatalf("accumulated duration = %v, want 150ms", d)
	}
	if n := len(pt.Durations()); n != 1 {
		t.Fatalf("phase should appear once, got %d", n)
	}
}

func TestPhaseTimerTime(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	pt := NewPhaseTimer(clock.Now)
	wantErr := errors.New("boom")
	err := pt.Time("analyze", func() error {
		clock.Advance(time.Second)
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Time should propagate error, got %v", err)
	}
	if d := pt.Duration("analyze"); d != time.Second {
		t.Fatalf("analyze duration = %v", d)
	}
}

func TestMeasurementsSortedOperationNames(t *testing.T) {
	m := Measurements{PerOperation: map[string]Snapshot{
		"update": {}, "read": {}, "insert": {},
	}}
	got := m.SortedOperationNames()
	want := []string{"insert", "read", "update"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedOperationNames = %v, want %v", got, want)
		}
	}
}

package core

import (
	"testing"

	"chronos/internal/params"
	"chronos/internal/relstore"
)

// submitJobs is the size of the evaluations the fleet benchmark submits.
const submitJobs = 1000

// newSubmitFixture is a durable store holding the benchmark's no-op
// system and an experiment of its sweep shape: one int axis of n
// variants plus a fixed seed, so each CreateEvaluation expands n jobs.
func newSubmitFixture(tb testing.TB, n int) (svc *Service, expID string) {
	tb.Helper()
	db, err := relstore.Open(tb.TempDir(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	if svc, err = NewService(db, nil); err != nil {
		tb.Fatal(err)
	}
	u, err := svc.CreateUser("bench", RoleAdmin)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := svc.CreateProject("bench", "", u.ID, nil)
	if err != nil {
		tb.Fatal(err)
	}
	intParam := func(name string, def int64) params.Definition {
		return params.Definition{Name: name, Type: params.TypeValue, ValueKind: params.KindInt, Default: params.Int(def)}
	}
	sys, err := svc.RegisterSystem("noop", "", []params.Definition{intParam("v", 0), intParam("seed", 1)}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	vals := make([]params.Value, n)
	for i := range vals {
		vals[i] = params.Int(int64(104729 + 7*i))
	}
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "sweep", "", map[string][]params.Value{
		"v": vals, "seed": {params.Int(1)},
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return svc, exp.ID
}

// BenchmarkCreateEvaluation is one sweep submit: a 1,000-job evaluation
// expanded and committed to a durable store in one transaction.
func BenchmarkCreateEvaluation(b *testing.B) {
	svc, expID := newSubmitFixture(b, submitJobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.CreateEvaluation(expID); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCreateEvaluationAllocs pins BenchmarkCreateEvaluation's allocations
// at 23 per job. The call made 43 per job while the job rows boxed the
// evaluation's shared values per job, params went through reflection,
// every posting list kept a membership map and a new job's row was sized
// for all 14 columns. Allocation counts do not depend on the host's
// speed, so the bound is exact.
func TestCreateEvaluationAllocs(t *testing.T) {
	svc, expID := newSubmitFixture(t, submitJobs)
	got := testing.AllocsPerRun(5, func() {
		if _, _, err := svc.CreateEvaluation(expID); err != nil {
			t.Fatal(err)
		}
	}) / submitJobs
	t.Logf("%.2f allocs per job", got)
	if got > 23 {
		t.Errorf("CreateEvaluation: %.2f allocs per job, want <= 23", got)
	}
}

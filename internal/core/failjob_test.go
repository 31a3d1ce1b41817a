package core

import (
	"fmt"
	"testing"

	"chronos/internal/relstore"
)

// TestAttemptBudgetUsesScalarColumnNotBlob proves failJob's budget
// lookup never decodes the experiment JSON: the blob is replaced with
// garbage that would fail any json.Unmarshal, and the budget (from the
// scalar maxAttempts column) must still be honoured exactly.
func TestAttemptBudgetUsesScalarColumnNotBlob(t *testing.T) {
	svc, _ := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	svc.CreateEvaluation(expID)

	// Sabotage the blob, keep the scalars: budget 2.
	err := svc.store.db.Update(func(tx *relstore.Tx) error {
		row, err := tx.Get(tableExperiments, expID)
		if err != nil {
			return err
		}
		row["maxAttempts"] = int64(2)
		row["data"] = []byte("certainly not json")
		return tx.Put(tableExperiments, row)
	})
	if err != nil {
		t.Fatal(err)
	}

	var jobID string
	for attempt := 1; attempt <= 2; attempt++ {
		j, ok, err := svc.ClaimJob(depID)
		if err != nil || !ok {
			t.Fatalf("claim attempt %d: %v %v", attempt, ok, err)
		}
		if jobID == "" {
			jobID = j.ID
		}
		if err := svc.FailJob(j.ID, "boom"); err != nil {
			t.Fatalf("fail attempt %d: %v", attempt, err)
		}
	}
	got, _ := svc.GetJob(jobID)
	if got.Status != StatusFailed {
		t.Fatalf("after 2 attempts with budget 2: %s", got.Status)
	}
}

// TestAttemptBudgetMissingEvaluationUsesDefault: a job whose evaluation
// vanished (pruned project, say) falls back to the service default
// instead of erroring.
func TestAttemptBudgetMissingEvaluationUsesDefault(t *testing.T) {
	svc, _ := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	svc.CreateEvaluation(expID)
	j, ok, err := svc.ClaimJob(depID)
	if err != nil || !ok {
		t.Fatalf("claim: %v %v", ok, err)
	}
	err = svc.store.db.Update(func(tx *relstore.Tx) error {
		return tx.Delete(tableEvaluations, j.EvaluationID)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FailJob(j.ID, "boom"); err != nil {
		t.Fatal(err)
	}
	got, _ := svc.GetJob(j.ID)
	// DefaultMaxAttempts is 3 and this was attempt 1, so it reschedules.
	if got.Status != StatusScheduled {
		t.Fatalf("default budget not applied: %s", got.Status)
	}
}

// BenchmarkFailJob measures one failure-handling round (fail + budget
// lookup + auto-reschedule) against experiments with small and large
// settings blobs. The budget is a scalar-column projection, so ns/op
// must stay flat in the blob size; the seed path decoded the full
// settings per failure and scaled with the sweep width.
func BenchmarkFailJob(b *testing.B) {
	for _, variants := range []int{10, 5000} {
		b.Run(fmt.Sprintf("settings=%d", variants), func(b *testing.B) {
			svc, err := NewService(relstore.OpenMemory(), nil)
			if err != nil {
				b.Fatal(err)
			}
			// Huge budget so the job auto-reschedules forever.
			depID, _, _ := sweepFixture(b, svc, variants, 1<<30)
			j, ok, err := svc.ClaimJob(depID)
			if err != nil || !ok {
				b.Fatalf("claim: %v %v", ok, err)
			}
			// rearm flips the job back to running without the claim path,
			// so the loop isolates the failure-handling cost.
			rearm := func() {
				err := svc.store.db.Update(func(tx *relstore.Tx) error {
					jj, err := svc.store.readJob(tx, j.ID)
					if err != nil {
						return err
					}
					jj.Status = StatusRunning
					return svc.store.putJobRow(tx, jj)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.FailJob(j.ID, "bench"); err != nil {
					b.Fatal(err)
				}
				rearm()
			}
		})
	}
}

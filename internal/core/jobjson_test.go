package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"chronos/internal/params"
)

// jobTwin is Job without its methods: encoding/json writes it by
// reflection over Job's fields, the reference Job.AppendJSON is held to.
type jobTwin Job

// checkJobEncodesAsReference fails unless j appends the twin's bytes, or
// both refuse it; json.Marshal of j, through MarshalJSON, and of a Jobs
// list must write those bytes too.
func checkJobEncodesAsReference(t *testing.T, j *Job) {
	t.Helper()
	got, err := j.AppendJSON(nil)
	want, refErr := json.Marshal((*jobTwin)(j))
	if (err == nil) != (refErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%#v appends %s (%v), reflection writes %s (%v)", j, got, err, want, refErr)
	}
	if refErr != nil {
		return
	}
	if b, err := json.Marshal(j); err != nil || !bytes.Equal(b, want) {
		t.Fatalf("json.Marshal through MarshalJSON writes %s (%v), want %s", b, err, want)
	}
	list, err := Jobs{j, nil}.AppendJSON(nil)
	wantList, _ := json.Marshal([]*jobTwin{(*jobTwin)(j), nil})
	if err != nil || !bytes.Equal(list, wantList) {
		t.Fatalf("Jobs appends %s (%v), want %s", list, err, wantList)
	}
}

// FuzzJobJSONMatchesReflection: for any job — strings with HTML
// characters, control bytes or invalid UTF-8, any ints, times with
// nanoseconds, in any zone, in years outside 0–9999, nil, empty or
// filled params — AppendJSON fails exactly when json.Marshal of the
// method-less twin does, and otherwise writes its bytes. The seeds are
// committed under testdata/fuzz/FuzzJobJSONMatchesReflection.
func FuzzJobJSONMatchesReflection(f *testing.F) {
	f.Fuzz(func(t *testing.T, id, evID, status, dep, errText string, index, progress, sec, nsec int64, zone int32, mode uint8) {
		loc := time.FixedZone("z", int(zone))
		j := &Job{
			ID:           id,
			EvaluationID: evID,
			SystemID:     errText + id,
			Index:        index,
			Status:       JobStatus(status),
			DeploymentID: dep,
			Progress:     progress,
			Attempts:     -index,
			Error:        errText,
			Created:      time.Unix(sec, nsec).In(loc),
			Started:      time.Unix(sec>>20, 0).UTC(),
			Heartbeat:    time.Unix(nsec, sec%1e9).In(loc),
		}
		switch mode % 4 {
		case 1:
			j.Params = params.Assignment{}
		case 2:
			j.Params = params.Assignment{id: params.String_(errText), "n": params.Int(index), dep: params.StringList(status, evID)}
		case 3:
			j.Params = params.Assignment{"f": params.Float(math.Float64frombits(uint64(sec)))}
		}
		checkJobEncodesAsReference(t, j)
	})
}

// TestJobJSONEdges pins the cases the fuzz seeds start from: the zero job,
// a nil one, a year past 9999 and a zone hour past 23 (both refused), and
// a float with no JSON form.
func TestJobJSONEdges(t *testing.T) {
	for _, j := range []*Job{
		{},
		{ID: "job-000000001", Params: params.Assignment{"v": params.Int(1)}, Created: time.Date(2020, 3, 30, 9, 0, 0, 123456789, time.UTC)},
		{Created: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Created: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Heartbeat: time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("far", 24*3600))},
		{Params: params.Assignment{"f": params.Float(math.Inf(1))}},
	} {
		checkJobEncodesAsReference(t, j)
	}
	if b, err := (*Job)(nil).AppendJSON(nil); err != nil || string(b) != "null" {
		t.Fatalf("nil job appends %s (%v), want null", b, err)
	}
}

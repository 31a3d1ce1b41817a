package metrics

import "testing"

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

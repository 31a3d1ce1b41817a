package webui

import (
	"testing"

	"chronos/internal/params"
)

func TestParseVariants(t *testing.T) {
	intervalDef := params.Definition{Name: "threads", Type: params.TypeInterval,
		Min: 1, Max: 8, Step: 1, Default: params.Int(1)}
	cases := []struct {
		def   params.Definition
		input string
		want  []string // String() encodings
	}{
		{params.Definition{Name: "b", Type: params.TypeBoolean}, "true,false", []string{"true", "false"}},
		{params.Definition{Name: "e", Type: params.TypeValue, ValueKind: params.KindString}, "wiredtiger, mmapv1", []string{"wiredtiger", "mmapv1"}},
		{params.Definition{Name: "n", Type: params.TypeValue, ValueKind: params.KindInt}, "1,2,4", []string{"1", "2", "4"}},
		{params.Definition{Name: "f", Type: params.TypeValue, ValueKind: params.KindFloat}, "1.5,2", []string{"1.5", "2"}},
		{intervalDef, "1, 4,8", []string{"1", "4", "8"}},
		{intervalDef, "*", []string{"1", "2", "3", "4", "5", "6", "7", "8"}},
		{params.Definition{Name: "m", Type: params.TypeRatio, RatioParts: []string{"r", "w"}}, "95:5, 50:50", []string{"95:5", "50:50"}},
		{params.Definition{Name: "c", Type: params.TypeCheckbox, Options: []string{"a", "b", "c"}}, "a|b, c", []string{"a,b", "c"}},
	}
	for _, c := range cases {
		got, err := parseVariants(c.def, c.input)
		if err != nil {
			t.Fatalf("%s %q: %v", c.def.Name, c.input, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s %q: got %v, want %v", c.def.Name, c.input, got, c.want)
		}
		for i := range got {
			if got[i].String() != c.want[i] {
				t.Fatalf("%s %q: variant %d = %q, want %q", c.def.Name, c.input, i, got[i].String(), c.want[i])
			}
		}
	}
	// Empty input means "use default".
	if got, err := parseVariants(intervalDef, "  "); err != nil || got != nil {
		t.Fatalf("empty input: %v, %v", got, err)
	}
	// Parse errors.
	bad := []struct {
		def   params.Definition
		input string
	}{
		{params.Definition{Name: "b", Type: params.TypeBoolean}, "maybe"},
		{params.Definition{Name: "n", Type: params.TypeValue, ValueKind: params.KindInt}, "one"},
		{params.Definition{Name: "m", Type: params.TypeRatio, RatioParts: []string{"r", "w"}}, "95:x"},
		{intervalDef, "fast"},
	}
	for _, c := range bad {
		if _, err := parseVariants(c.def, c.input); err == nil {
			t.Fatalf("%s %q: expected parse error", c.def.Name, c.input)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(5) != "5" || trimFloat(5.25) != "5.25" || trimFloat(5.256) != "5.26" {
		t.Fatalf("trimFloat: %s %s %s", trimFloat(5), trimFloat(5.25), trimFloat(5.256))
	}
}

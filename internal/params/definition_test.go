package params

import (
	"encoding/json"
	"testing"
)

// FuzzDefinitionJSON: a system definition arrives in the body of POST
// /systems, and json.Unmarshal into a Definition is what parses each of
// its parameters. No input panics it, and a definition it accepts marshals,
// parses back and marshals to the same bytes again. The seeds, committed
// under testdata/fuzz/FuzzDefinitionJSON, are the parameters the two
// simulator families register plus the malformed kinds the parser must
// refuse.
func FuzzDefinitionJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Definition
		if err := json.Unmarshal(data, &d); err != nil {
			return
		}
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%q parsed to %+v, which does not marshal: %v", data, d, err)
		}
		var back Definition
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%q parsed to %+v, whose JSON %s does not parse: %v", data, d, enc, err)
		}
		again, err := json.Marshal(back)
		if err != nil || string(again) != string(enc) {
			t.Fatalf("%q: JSON %s marshals again as %s (%v)", data, enc, again, err)
		}
	})
}

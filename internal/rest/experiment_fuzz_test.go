package rest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"chronos/internal/api"
	"chronos/internal/httputil"
	"chronos/internal/params"
)

// FuzzCreateExperimentBody: a POST /experiments body is client input, and
// its settings reach params.Value's decoder, canonical scanner first,
// through the server's own request decoder. No body panics it, and
// settings it accepts encode and decode back to Equal values. The seeds
// are committed under testdata/fuzz/FuzzCreateExperimentBody.
func FuzzCreateExperimentBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/api/v2/experiments", bytes.NewReader(body))
		var q api.CreateExperimentRequest
		if err := httputil.DecodeJSON(r, &q); err != nil {
			return
		}
		enc, err := json.Marshal(q.Settings)
		if err != nil {
			t.Fatalf("%q: settings %v do not marshal: %v", body, q.Settings, err)
		}
		var back map[string][]params.Value
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%q: settings JSON %s does not parse: %v", body, enc, err)
		}
		if len(back) != len(q.Settings) {
			t.Fatalf("%q: settings JSON %s parses to %v, want %v", body, enc, back, q.Settings)
		}
		for name, vals := range q.Settings {
			got := back[name]
			if len(got) != len(vals) {
				t.Fatalf("%q: %s parses back as %v, want %v", body, name, got, vals)
			}
			for i := range vals {
				if got[i].Kind() != vals[i].Kind() || !got[i].Equal(vals[i]) {
					t.Fatalf("%q: %s[%d] parses back as %#v, want %#v", body, name, i, got[i], vals[i])
				}
			}
		}
	})
}

// Package jsonw appends JSON scalars to a byte slice exactly as
// encoding/json writes them, for the encoders written by hand where a
// value is encoded often enough that reflection shows (params.Value,
// params.Assignment, core.Job). Their bytes land in stored rows and on
// the wire, so "exactly" is byte for byte: each encoder is tested against
// encoding/json's output for the same value.
package jsonw

import (
	"encoding/json"
	"time"
)

// String appends s as a JSON string. A string of printable ASCII without
// a quote, a backslash, '<', '>' or '&' is copied as it is; any other
// string is written by encoding/json, whose HTML escaping, U+2028/U+2029
// escaping and invalid-UTF-8 replacement it thereby keeps.
func String(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Time appends t as encoding/json writes a time.Time: quoted RFC 3339
// with the nanoseconds it has. A time RFC 3339 cannot write — a year
// outside 0–9999, a zone hour outside 0–23 — is an error, as it is to
// encoding/json.
func Time(dst []byte, t time.Time) ([]byte, error) {
	dst, err := t.AppendText(append(dst, '"'))
	if err != nil {
		return nil, err
	}
	return append(dst, '"'), nil
}

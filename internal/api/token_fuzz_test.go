package api

import (
	"testing"

	"chronos/internal/relstore"
)

// FuzzParseCommitToken feeds arbitrary X-Chronos-Read-After values to
// the token parser. No input may panic it, and a token it accepts must
// print with String and parse back equal. The seed corpus is committed
// under testdata/fuzz/FuzzParseCommitToken and replays in every plain
// test run.
func FuzzParseCommitToken(f *testing.F) {
	f.Add("3f2a9c1e:1:7:4096")
	f.Add(CommitToken{Generation: relstore.Generation{StoreID: "s", Epoch: 1 << 62}, Position: relstore.Position{Seq: 1<<63 - 1}}.String())
	f.Fuzz(func(t *testing.T, s string) {
		tok, err := ParseCommitToken(s)
		if err != nil {
			return
		}
		back, err := ParseCommitToken(tok.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose String %q does not parse: %v", s, tok, tok.String(), err)
		}
		if back != tok {
			t.Fatalf("%q parsed to %+v, and its String %q back to %+v", s, tok, tok.String(), back)
		}
	})
}

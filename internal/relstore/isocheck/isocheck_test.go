package isocheck

import (
	"testing"

	"chronos/internal/relstore"
)

// runOpts sizes the CI runs: enough concurrent commits that writer pairs
// genuinely overlap inside the store, small enough for the race
// detector. Span 2 over 4 tables means every table is written by two
// writers and every writer shares each of its tables with a neighbour.
func runOpts() Options {
	return Options{Tables: 4, Writers: 4, Readers: 4, Ops: 150, Span: 2}
}

// TestLeaderIsolationSnapshotReads is the main gate: writers × readers ×
// background compaction churn on a durable store with small segments,
// under -race in CI. Cross-table atomicity is asserted on every
// observation, here and in every other run.
func TestLeaderIsolationSnapshotReads(t *testing.T) {
	db, err := relstore.Open(t.TempDir(), &relstore.Options{SegmentBytes: 16 << 10, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	opt := runOpts()
	opt.Churn = true
	if err := Run(db, opt); err != nil {
		t.Fatal(err)
	}
}

// TestLeaderIsolationPerOpReads runs the same gate on a second store with
// its own schedule of rotations and compaction cycles.
func TestLeaderIsolationPerOpReads(t *testing.T) {
	db, err := relstore.Open(t.TempDir(), &relstore.Options{SegmentBytes: 16 << 10, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	opt := runOpts()
	opt.Churn = true
	if err := Run(db, opt); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryStoreIsolation runs the checker against the pure in-memory
// store: no WAL, no group commit — isolating the store lock itself.
func TestMemoryStoreIsolation(t *testing.T) {
	db := relstore.OpenMemory()
	if err := Run(db, runOpts()); err != nil {
		t.Fatal(err)
	}
}

// TestWideTransactionsRestartCleanly drives writers whose table sets
// span most of the store (Span = Tables-1), so every writer overlaps
// every other and every View is a three-table cut, and verifies the
// isolation contract holds end to end.
func TestWideTransactionsRestartCleanly(t *testing.T) {
	db := relstore.OpenMemory()
	opt := Options{Tables: 4, Writers: 6, Readers: 3, Ops: 100, Span: 3}
	if err := Run(db, opt); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerCatchesTornSnapshot sanity-checks the checker itself: a
// hand-built history with a half-applied multi-table commit must be
// rejected. A checker that cannot fail proves nothing.
func TestCheckerCatchesTornSnapshot(t *testing.T) {
	opt := Options{Tables: 2, Writers: 1, Readers: 1, Ops: 10, Span: 2}.withDefaults()
	h := history{reader: 0, obs: []Observation{{
		Writer: 0, Tables: []string{TableName(0), TableName(1)},
		Seqs: []int64{5, 4}, Lower: 3, Upper: 6,
	}}}
	if err := checkHistory(h, opt); err == nil {
		t.Fatal("torn snapshot not detected")
	}
}

// TestCheckerCatchesViolations exercises every other checker clause on
// synthetic histories: dirty read, ghost read, lost visibility and a
// backwards per-table observation.
func TestCheckerCatchesViolations(t *testing.T) {
	opt := Options{Tables: 2, Writers: 1, Readers: 1, Ops: 10, Span: 1}.withDefaults()
	tbl := []string{TableName(0)}
	cases := map[string]history{
		"dirty read":      {obs: []Observation{{Tables: tbl, Seqs: []int64{2}, Lower: 1, Upper: 3, Aborted: true}}},
		"ghost read":      {obs: []Observation{{Tables: tbl, Seqs: []int64{9}, Lower: 1, Upper: 3}}},
		"lost visibility": {obs: []Observation{{Tables: tbl, Seqs: []int64{1}, Lower: 4, Upper: 6}}},
		"went backwards": {obs: []Observation{
			{Tables: tbl, Seqs: []int64{5}, Lower: 0, Upper: 9},
			{Tables: tbl, Seqs: []int64{4}, Lower: 0, Upper: 9},
		}},
	}
	for name, h := range cases {
		if err := checkHistory(h, opt); err == nil {
			t.Errorf("%s not detected", name)
		}
	}
}

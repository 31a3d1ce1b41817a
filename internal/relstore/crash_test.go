package relstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"chronos/internal/metrics"
)

// The crash-injection recovery harness.
//
// The run's seeded script (forms_test.go) runs against a store whose WAL
// segments rotate every few commits, first on a clean pass that records
// the on-disk byte offset of every frame boundary, then once per cut
// point with a crashBudget that severs writes at exactly that offset.
// Recovery must hold the model's state after every acknowledged commit
// ("no loss") and at most the one in flight when the budget tripped,
// whose frame may or may not have reached the file ("no ghosts").

// crashTableSchema is the table of crashCommit's workload.
func crashTableSchema() Schema {
	return Schema{
		Name: "t",
		Key:  "id",
		Columns: []Column{
			{Name: "id", Type: TString},
			{Name: "v", Type: TInt},
		},
	}
}

// crashCommit applies commit i of a small workload on crashTableSchema's
// table inside tx: it upserts row r<i> and advances the sequence.
func crashCommit(tx *Tx, i int) error {
	if err := tx.Put("t", Row{"id": fmt.Sprintf("r%05d", i), "v": int64(i)}); err != nil {
		return err
	}
	_, err := tx.NextSeq("t")
	return err
}

// crashScript is the matrix's workload: a script of the run's seed, about
// 40 commits long.
var crashScript = sync.OnceValue(func() *script {
	seed, _ := processSeed() // a bad CHRONOS_MODEL_SEED fails in modelSeed
	return genScript(rand.New(rand.NewSource(seed)), 64)
})

// crashOptions configures the store under torture: tiny segments so the
// workload spans several, and optionally aggressive auto-compaction so
// snapshot cycles race the cut.
func crashOptions(compactEvery int, hook func(walFile) walFile) *Options {
	return &Options{
		SegmentBytes: 1 << 10,
		CompactEvery: compactEvery,
		fileHook:     hook,
	}
}

// recordBoundaries runs the workload cleanly, without compaction, and
// returns the cumulative WAL byte offset after each acknowledged commit;
// snapshots bypass the WAL, so compacting runs have the same offsets.
func recordBoundaries(t *testing.T) []int64 {
	t.Helper()
	var written int64
	hook := func(f walFile) walFile { return &countingFile{f: f, n: &written} }
	db, err := Open(t.TempDir(), crashOptions(-1, hook))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var bounds []int64
	sc := crashScript()
	sc.mustPlay(t, db, sc.steps, playOpts{lane: -1, afterCommit: func() { bounds = append(bounds, written) }})
	if st := db.Stats(); st.WALSegments < 2 {
		t.Fatalf("workload must span multiple segments, stats=%+v", st)
	}
	return bounds
}

// runCrash replays the workload against a store that crashes after
// cutBytes of WAL writes, returning the data directory and the number
// of acknowledged commits. It also asserts the failure is sticky.
func runCrash(t *testing.T, cutBytes int64, compactEvery int) (dir string, acked int) {
	t.Helper()
	dir = t.TempDir()
	budget := newCrashBudget(cutBytes)
	db, err := Open(dir, crashOptions(compactEvery, budget.hook()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sc := crashScript()
	acked, err = sc.play(db, sc.steps, allLanes)
	if errors.Is(err, errDiffers) {
		t.Fatalf("cut=%d: %v", cutBytes, err)
	}
	if err != nil {
		// The failure must be sticky: the in-memory state is ahead of the
		// log, so no later write may be acknowledged.
		if bumpSeq(db, sc.steps[0].table) == nil {
			t.Fatalf("cut=%d: write acknowledged after WAL failure", cutBytes)
		}
		// Nor may a poisoned store compact its divergent state into a
		// snapshot.
		if err := db.Compact(); err == nil {
			t.Fatalf("cut=%d: compaction succeeded on poisoned store", cutBytes)
		}
	}
	return dir, acked
}

// verifyRecovery reopens the crashed directory and checks the exactly-
// the-acknowledged-commits contract.
func verifyRecovery(t *testing.T, dir string, cutBytes int64, acked int) {
	t.Helper()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("cut=%d: recovery failed: %v", cutBytes, err)
	}
	defer db.Close()
	// acked <= recovered <= acked+1: the state is the model's after the
	// acknowledged commits, or after the one in flight as well.
	sc := crashScript()
	got := stateOf(db)
	if acked+1 < len(sc.states) && slices.Equal(got, sc.states[acked+1]) {
		acked++
	}
	checkState(t, fmt.Sprintf("cut=%d: the store recovered from %d acknowledged commits", cutBytes, acked), sc.states[acked], got)
	// And the recovered store must accept new writes (recreating the
	// tables when even their creation records were torn away).
	if err := db.CreateTable(sc.created()...); err != nil {
		t.Fatalf("cut=%d: CreateTable after recovery: %v", cutBytes, err)
	}
	if err := bumpSeq(db, sc.steps[0].table); err != nil {
		t.Fatalf("cut=%d: store not writable after recovery: %v", cutBytes, err)
	}
}

// bumpSeq commits one NextSeq on table.
func bumpSeq(db *DB, table string) error {
	return db.Update(func(tx *Tx) error {
		_, err := tx.NextSeq(table)
		return err
	})
}

// TestCrashRecoveryAtEveryFrameBoundary is the matrix: the store is
// killed at every frame boundary of the multi-segment workload — plus
// offsets a few bytes past each boundary, tearing the next frame's
// header or body — and recovery must yield exactly the acknowledged
// commits each time. Run twice: with compaction disabled and with an
// aggressive background compaction racing the workload, so snapshot
// cycles and segment deletes are part of the tortured surface.
func TestCrashRecoveryAtEveryFrameBoundary(t *testing.T) {
	modelSeed(t)
	bounds := recordBoundaries(t)
	for _, cfg := range []struct {
		name         string
		compactEvery int
	}{
		{"compact=off", -1},
		{"compact=10", 10},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			for _, b := range bounds {
				for _, off := range []int64{0, 3, 11} {
					cut := b + off
					dir, acked := runCrash(t, cut, cfg.compactEvery)
					verifyRecovery(t, dir, cut, acked)
				}
			}
		})
	}
}

// TestCrashMidFirstFrame: cutting inside the very first frame leaves a
// store that recovers to empty and stays usable.
func TestCrashMidFirstFrame(t *testing.T) {
	dir, acked := runCrash(t, 10, -1)
	if acked != 0 {
		t.Fatalf("acked %d commits through a 10-byte WAL", acked)
	}
	verifyRecovery(t, dir, 10, 0)
}

// TestWALFailureIsVisible: the sticky WAL failure that refuses every
// later write is what an operator sees, as storage.walError on /status
// (Stats) and as the chronos_store_wal_failed gauge, and what a writer
// sees, as ErrWALFailed. A clean store reads 0 and leaves the field out.
func TestWALFailureIsVisible(t *testing.T) {
	walFailed := func(reg *metrics.Registry) float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if s.Name == "chronos_store_wal_failed" {
				return s.Value
			}
		}
		t.Fatal("no chronos_store_wal_failed sample")
		return 0
	}
	open := func(budget int64) (*DB, *metrics.Registry) {
		t.Helper()
		reg := metrics.NewRegistry()
		opts := crashOptions(-1, newCrashBudget(budget).hook())
		opts.Metrics = reg
		db, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.CreateTable(crashTableSchema()); err != nil {
			t.Fatal(err)
		}
		return db, reg
	}

	clean, reg := open(1 << 20)
	createBytes := int64(clean.Stats().WALSizeB)
	if err := clean.Update(func(tx *Tx) error { return crashCommit(tx, 0) }); err != nil {
		t.Fatal(err)
	}
	if got := walFailed(reg); got != 0 {
		t.Fatalf("clean store: chronos_store_wal_failed = %v, want 0", got)
	}
	js, err := json.Marshal(clean.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(js), "walError") {
		t.Fatalf("clean store's stats carry a WAL error: %s", js)
	}

	// Room for the CreateTable frame and not for the first commit.
	tripped, reg := open(createBytes)
	// The write that trips the store and the one it refuses afterwards.
	for i := 0; i < 2; i++ {
		if err := tripped.Update(func(tx *Tx) error { return crashCommit(tx, i) }); !errors.Is(err, ErrWALFailed) {
			t.Fatalf("write %d on a tripped store = %v, want ErrWALFailed", i, err)
		}
	}
	if got := walFailed(reg); got != 1 {
		t.Fatalf("tripped store: chronos_store_wal_failed = %v, want 1", got)
	}
	if got := tripped.Stats().WALError; !strings.Contains(got, errCrashed.Error()) {
		t.Fatalf("tripped store: Stats().WALError = %q, want the failpoint's error", got)
	}
}

// TestCrashBudgetSemantics pins the failpoint itself: the prefix is
// written, the cut write errors, and everything after fails.
func TestCrashBudgetSemantics(t *testing.T) {
	budget := newCrashBudget(5)
	var sink sinkFile
	f := budget.hook()(&sink)
	if n, err := f.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	if n, err := f.Write([]byte("defg")); n != 2 || !errors.Is(err, errCrashed) {
		t.Fatalf("crossing budget: n=%d err=%v", n, err)
	}
	if string(sink.data) != "abcde" {
		t.Fatalf("on-disk prefix = %q", sink.data)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, errCrashed) {
		t.Fatal("write after crash succeeded")
	}
	if err := f.Sync(); !errors.Is(err, errCrashed) {
		t.Fatal("sync after crash succeeded")
	}
	if err := f.Close(); !errors.Is(err, errCrashed) {
		t.Fatal("close after crash did not report the crash")
	}
	if !sink.closed {
		t.Fatal("underlying file left open (descriptor leak)")
	}
}

// sinkFile is an in-memory walFile for failpoint unit tests.
type sinkFile struct {
	data   []byte
	closed bool
}

func (s *sinkFile) Write(p []byte) (int, error) { s.data = append(s.data, p...); return len(p), nil }
func (s *sinkFile) Sync() error                 { return nil }
func (s *sinkFile) Close() error                { s.closed = true; return nil }

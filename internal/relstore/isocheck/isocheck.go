// Package isocheck mechanically verifies relstore's isolation contract
// under real concurrency, in the spirit of online timestamp-based
// isolation checking: instead of trusting that the store's locking is
// correct, it runs N writers against M readers over overlapping table
// sets, records every observation together with logical timestamps
// bounding when it happened, and checks the recorded history against the
// store's documented guarantees:
//
//   - No dirty reads: a transaction that rolls back (here: every writer
//     deliberately aborts a marked transaction at a fixed cadence) is
//     never observed, not even transiently.
//   - No ghost reads: a reader never observes a version no writer has
//     started committing — observed sequence numbers are bounded above
//     by the writer's started-commit timestamp.
//   - Per-table commit-order visibility: once a commit is acknowledged,
//     every later read observes it or something newer (observations are
//     bounded below by the writer's acknowledged timestamp), and a
//     single reader never sees a table's state move backwards.
//   - Cross-table atomicity: a View over a writer's whole table set
//     always sees one commit — equal sequence numbers in every table —
//     because a View is one cut of the store.
//   - Serialisability of writers (no lost updates): every committed
//     transaction increments a shared per-table counter read-modify-
//     write style; the final counter must equal the exact number of
//     commits that touched the table.
//
// The recorder is deliberately simple: each writer publishes two atomic
// logical clocks (started and acknowledged commit sequence), and each
// reader brackets every observation with loads of those clocks. The
// bracket [acknowledged-before, started-after] is the interval the
// observation must fall into; violations are reported with the full
// context needed to replay them. The same checker runs against a leader
// store and — with the visibility lower bound relaxed to account for
// replication lag — against a WAL-shipping follower replica, where
// FinalCheck additionally asserts exact convergence once the follower
// has caught up.
package isocheck

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/relstore"
)

// Options sizes one verification run.
type Options struct {
	// Tables is the number of tables the run spreads load over.
	Tables int
	// Writers is the number of concurrent writer goroutines. Writer w
	// commits to the Span tables starting at table w%Tables, so adjacent
	// writers overlap and every table is shared.
	Writers int
	// Readers is the number of concurrent reader goroutines.
	Readers int
	// Ops is the number of committed transactions per writer.
	Ops int
	// Span is how many tables each writer transaction touches
	// (default 2; capped at Tables).
	Span int
	// Churn runs background compaction cycles for the duration of the
	// run, so the checker also covers the snapshot clone path.
	Churn bool
	// ReadDB is the store readers observe; nil means the written store
	// itself. Point it at a follower replica to check replicated
	// visibility.
	ReadDB *relstore.DB
	// Follower relaxes the visibility lower bound: a replica may lag the
	// leader's acknowledged commits, so readers only check that
	// observations never run ahead of started commits, never move
	// backwards, and stay cross-table atomic.
	Follower bool
}

func (o Options) withDefaults() Options {
	opt := o
	if opt.Tables <= 0 {
		opt.Tables = 4
	}
	if opt.Writers <= 0 {
		opt.Writers = 4
	}
	if opt.Readers <= 0 {
		opt.Readers = 4
	}
	if opt.Ops <= 0 {
		opt.Ops = 200
	}
	if opt.Span <= 0 {
		opt.Span = 2
	}
	if opt.Span > opt.Tables {
		opt.Span = opt.Tables
	}
	return opt
}

// abortEvery is the cadence at which writers run a deliberately aborted
// transaction (writing the poison marker that must never be observed).
const abortEvery = 7

// TableName returns the name of table i in a run.
func TableName(i int) string { return fmt.Sprintf("iso%02d", i) }

// Schema returns the schema every isocheck table uses.
func Schema(i int) relstore.Schema {
	return relstore.Schema{Name: TableName(i), Key: "id", Columns: []relstore.Column{
		{Name: "id", Type: relstore.TString},
		{Name: "seq", Type: relstore.TInt, Nullable: true},
		{Name: "n", Type: relstore.TInt, Nullable: true},
		{Name: "aborted", Type: relstore.TBool, Nullable: true},
	}}
}

// writerTables returns writer w's table set: Span consecutive tables
// starting at w%Tables, so neighbouring writers overlap.
func writerTables(w int, opt Options) []string {
	names := make([]string, opt.Span)
	for j := range names {
		names[j] = TableName((w + j) % opt.Tables)
	}
	return names
}

// Observation is one recorded read of a writer's rows across its table
// set, bracketed by the writer's logical clocks.
type Observation struct {
	Writer int
	Tables []string
	// Seqs is the sequence number observed per table (0 = row absent).
	Seqs []int64
	// Aborted reports that some observed row carried the poison marker
	// of a rolled-back transaction — an instant dirty-read violation.
	Aborted bool
	// Lower is the writer's acknowledged-commit clock loaded before the
	// read began; Upper its started-commit clock loaded after the read
	// returned. Every observed Seq must fall in [Lower, Upper] (Lower
	// relaxed to 0 for follower reads).
	Lower, Upper int64
}

// history is one reader's observation log, in real-time order.
type history struct {
	reader int
	obs    []Observation
}

// Run creates the tables on db, drives writers against db and readers
// against Options.ReadDB (db itself when nil), records every observation
// and checks the history. It returns the first violation found, or the
// first operational error; nil means the isolation contract held for the
// whole run.
func Run(db *relstore.DB, o Options) error {
	opt := o.withDefaults()
	readDB := opt.ReadDB
	if readDB == nil {
		readDB = db
	}
	for i := 0; i < opt.Tables; i++ {
		if err := db.CreateTable(Schema(i)); err != nil {
			return err
		}
	}

	// Per-writer logical clocks: started is bumped immediately before a
	// commit attempt begins, acked immediately after Update acknowledges
	// it. Reader brackets load acked before and started after each
	// observation.
	started := make([]atomic.Int64, opt.Writers)
	acked := make([]atomic.Int64, opt.Writers)

	var (
		errMu    sync.Mutex
		firstErr error
		done     atomic.Bool
	)
	fail := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		done.Store(true)
	}

	var churnWG sync.WaitGroup
	if opt.Churn {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for !done.Load() {
				if err := db.Compact(); err != nil {
					fail(fmt.Errorf("isocheck: compaction churn: %w", err))
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < opt.Writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			fail(runWriter(db, w, opt, &started[w], &acked[w], &done))
		}(w)
	}

	histories := make([]history, opt.Readers)
	var readerWG sync.WaitGroup
	for r := 0; r < opt.Readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			h, err := runReader(readDB, r, opt, started, acked, &done)
			histories[r] = h
			fail(err)
		}(r)
	}

	writerWG.Wait()
	done.Store(true)
	readerWG.Wait()
	churnWG.Wait()

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		return err
	}
	for _, h := range histories {
		if err := checkHistory(h, opt); err != nil {
			return err
		}
	}
	if opt.ReadDB == nil {
		return FinalCheck(db, o)
	}
	return nil
}

// runWriter drives writer w: Ops committed transactions, each writing
// seq to the writer's row in every table of its set and incrementing the
// shared per-table counter; every abortEvery-th round first runs a
// transaction that writes the poison marker and rolls back.
func runWriter(db *relstore.DB, w int, opt Options, started, acked *atomic.Int64, done *atomic.Bool) error {
	tables := writerTables(w, opt)
	rowID := fmt.Sprintf("w%d", w)
	errAbort := errors.New("isocheck: deliberate rollback")
	for i := int64(1); i <= int64(opt.Ops); i++ {
		if done.Load() {
			return nil
		}
		if i%abortEvery == 0 {
			// The poison transaction: buffered writes that must never
			// become visible, not even while the transaction is open.
			err := db.Update(func(tx *relstore.Tx) error {
				for _, tbl := range tables {
					if err := tx.Put(tbl, relstore.Row{"id": rowID, "seq": i, "aborted": true}); err != nil {
						return err
					}
				}
				return errAbort
			})
			if !errors.Is(err, errAbort) {
				return fmt.Errorf("isocheck: writer %d: aborted tx returned %v", w, err)
			}
		}
		started.Store(i)
		err := db.Update(func(tx *relstore.Tx) error {
			for _, tbl := range tables {
				if err := tx.Put(tbl, relstore.Row{"id": rowID, "seq": i}); err != nil {
					return err
				}
				// Read-modify-write on the shared counter: lost updates
				// here mean two writers' callbacks interleaved.
				var n int64
				switch v, err := tx.GetValue(tbl, "counter", "n"); {
				case err == nil:
					n = v.(int64)
				case errors.Is(err, relstore.ErrNotFound):
				default:
					return err
				}
				if err := tx.Put(tbl, relstore.Row{"id": "counter", "n": n + 1}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("isocheck: writer %d commit %d: %w", w, i, err)
		}
		acked.Store(i)
	}
	return nil
}

// runReader observes writers round-robin until the run ends, recording
// each observation with its clock bracket.
func runReader(db *relstore.DB, r int, opt Options, started, acked []atomic.Int64, done *atomic.Bool) (history, error) {
	h := history{reader: r}
	for round := 0; ; round++ {
		if done.Load() {
			return h, nil
		}
		w := (r + round) % opt.Writers
		obs, err := observe(db, w, opt, &started[w], &acked[w])
		if err != nil {
			return h, fmt.Errorf("isocheck: reader %d: %w", r, err)
		}
		if obs != nil {
			h.obs = append(h.obs, *obs)
		}
	}
}

// observe reads writer w's row in each of its tables, bracketed by the
// writer's clocks. On a follower a table may not have replicated yet;
// that skips the observation instead of failing the run.
func observe(db *relstore.DB, w int, opt Options, started, acked *atomic.Int64) (*Observation, error) {
	tables := writerTables(w, opt)
	rowID := fmt.Sprintf("w%d", w)
	obs := &Observation{
		Writer: w,
		Tables: tables,
		Seqs:   make([]int64, len(tables)),
		Lower:  acked.Load(),
	}
	err := db.View(func(tx *relstore.Tx) error {
		for i, tbl := range tables {
			switch v, err := tx.GetValue(tbl, rowID, "seq"); {
			case err == nil:
				if v != nil {
					obs.Seqs[i] = v.(int64)
				}
			case errors.Is(err, relstore.ErrNotFound):
			default:
				return err
			}
			switch v, err := tx.GetValue(tbl, rowID, "aborted"); {
			case err == nil:
				if b, ok := v.(bool); ok && b {
					obs.Aborted = true
				}
			case errors.Is(err, relstore.ErrNotFound):
			default:
				return err
			}
		}
		return nil
	})
	if errors.Is(err, relstore.ErrUnknownTable) && opt.Follower {
		return nil, nil // table not replicated yet
	}
	if err != nil {
		return nil, err
	}
	obs.Upper = started.Load()
	return obs, nil
}

// checkHistory verifies one reader's recorded history against the
// isolation contract.
func checkHistory(h history, opt Options) error {
	// last[writer][table] is the newest seq this reader has observed.
	type key struct {
		w   int
		tbl string
	}
	last := make(map[key]int64)
	for i, obs := range h.obs {
		if obs.Aborted {
			return fmt.Errorf("isocheck: dirty read: reader %d observation %d saw writer %d's rolled-back transaction", h.reader, i, obs.Writer)
		}
		for j, tbl := range obs.Tables {
			seq := obs.Seqs[j]
			if seq > obs.Upper {
				return fmt.Errorf("isocheck: ghost read: reader %d observation %d saw seq %d of writer %d in %s, but only %d commits had started", h.reader, i, seq, obs.Writer, tbl, obs.Upper)
			}
			if !opt.Follower && seq < obs.Lower {
				return fmt.Errorf("isocheck: lost visibility: reader %d observation %d saw seq %d of writer %d in %s after commit %d was acknowledged", h.reader, i, seq, obs.Writer, tbl, obs.Lower)
			}
			k := key{obs.Writer, tbl}
			if prev := last[k]; seq < prev {
				return fmt.Errorf("isocheck: commit-order violation: reader %d observation %d saw writer %d's %s go backwards (%d after %d)", h.reader, i, obs.Writer, tbl, seq, prev)
			}
			last[k] = seq
		}
		for j := 1; j < len(obs.Seqs); j++ {
			if obs.Seqs[j] != obs.Seqs[0] {
				return fmt.Errorf("isocheck: torn view: reader %d observation %d saw writer %d at seq %d in %s but %d in %s — a multi-table commit was observed half-applied", h.reader, i, obs.Writer, obs.Seqs[0], obs.Tables[0], obs.Seqs[j], obs.Tables[j])
			}
		}
	}
	return nil
}

// FinalCheck asserts the settled end state of a run: every writer's row
// holds its final sequence number in every table of its set, no poison
// marker survived, and each table's shared counter equals the exact
// number of committed transactions that touched it (lost-update check —
// the writers' read-modify-write increments must all have serialised).
// For a follower replica, call it only after the follower has caught up.
func FinalCheck(db *relstore.DB, o Options) error {
	opt := o.withDefaults()
	wantCounter := make(map[string]int64, opt.Tables)
	for w := 0; w < opt.Writers; w++ {
		for _, tbl := range writerTables(w, opt) {
			wantCounter[tbl] += int64(opt.Ops)
		}
	}
	return db.View(func(tx *relstore.Tx) error {
		for w := 0; w < opt.Writers; w++ {
			rowID := fmt.Sprintf("w%d", w)
			for _, tbl := range writerTables(w, opt) {
				row, err := tx.Get(tbl, rowID)
				if err != nil {
					return fmt.Errorf("isocheck: final state: writer %d row in %s: %w", w, tbl, err)
				}
				if got := row["seq"].(int64); got != int64(opt.Ops) {
					return fmt.Errorf("isocheck: final state: writer %d at seq %d in %s, want %d", w, got, tbl, opt.Ops)
				}
				if b, ok := row["aborted"].(bool); ok && b {
					return fmt.Errorf("isocheck: final state: writer %d's rolled-back marker survived in %s", w, tbl)
				}
			}
		}
		for tbl, want := range wantCounter {
			v, err := tx.GetValue(tbl, "counter", "n")
			if err != nil {
				return fmt.Errorf("isocheck: final state: counter in %s: %w", tbl, err)
			}
			if got := v.(int64); got != want {
				return fmt.Errorf("isocheck: lost update: counter in %s is %d, want %d", tbl, got, want)
			}
		}
		return nil
	})
}

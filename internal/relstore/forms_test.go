package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The store-forms suite: one script, one model, one comparator, every
// form a store can take. A script (CreateTable, transactions of puts and
// NextSeqs, some aborted after they wrote, Compact points, Get and
// limited Select reads) comes from a seed or, under FuzzStoreForms, from
// fuzz bytes. Replaying it on storeModel gives every read's answer and
// the state after every commit. Each storeForms entry brings a store to
// the end of the script its own way; stateOf renders what it holds as
// the model's state renders (each table's schema and sequence, its rows
// with full value equality, the keys each indexed value selects), and
// checkState compares the two and prints the diff.

// scriptLanes is how many writers the concurrent form splits a script
// over. A transaction or Get touches one lane's keys, so each key's
// history is one lane's, in script order, however lanes interleave.
const (
	scriptLanes = 4
	laneKeys    = 4 // keys per lane per table
)

// formSchemas are the script's tables: between them every column type,
// indexed and plain strings, and nullable columns.
func formSchemas() []Schema {
	return []Schema{
		usersSchema(),
		{Name: "jobs", Key: "id", Columns: []Column{
			{Name: "id", Type: TString},
			{Name: "state", Type: TString, Indexed: true},
			{Name: "owner", Type: TString, Indexed: true},
			{Name: "note", Type: TString},
			{Name: "payload", Type: TBytes},
			{Name: "at", Type: TTime, Nullable: true},
		}},
		{Name: "kv", Key: "k", Columns: []Column{
			{Name: "k", Type: TString},
			{Name: "v", Type: TInt},
		}},
	}
}

type stepKind uint8

const (
	stepCreate stepKind = iota
	stepTx
	stepCompact
	stepGet
	stepSelect
)

// step is one script step. Reads carry the model's answer, rendered.
type step struct {
	kind  stepKind
	lane  int    // the lane whose keys a Tx or Get touches; -1 otherwise
	table string // Create, Get, Select
	key   string // Get
	col   string // Select: Eq(col, val).Limit(limit); limit 0 is none
	val   string
	limit int
	ops   []txOp // Tx
	abort bool   // Tx: the callback returns errAbort after its ops
	want  []string
}

// txOp is one operation inside a transaction: a put (row set), a NextSeq
// (seq set) or a Get of key checked against want.
type txOp struct {
	table, key string
	row        Row
	seq        bool
	want       string
	wantSeq    int64
}

// commits reports whether the step, played, commits a record to the
// log: a CreateTable, or a transaction that is not aborted and writes.
func (st *step) commits() bool {
	return st.kind == stepCreate || st.kind == stepTx && !st.abort &&
		slices.ContainsFunc(st.ops, func(op txOp) bool { return op.row != nil || op.seq })
}

func (st *step) String() string {
	var ops []string
	for _, op := range st.ops {
		ops = append(ops, fmt.Sprintf("%s/%s put=%v seq=%v", op.table, op.key, op.row != nil, op.seq))
	}
	return fmt.Sprintf("kind=%d %s/%s %s=%q limit=%d abort=%v ops=%v", st.kind, st.table, st.key, st.col, st.val, st.limit, st.abort, ops)
}

// script is a generated history and the model's view of it.
type script struct {
	schemas map[string]Schema
	steps   []step
	// states[k] is the model's state after k commits (see step.commits);
	// the last is the final state.
	states []storeState
}

func (sc *script) final() storeState { return sc.states[len(sc.states)-1] }

// created lists the schemas the script creates, in order.
func (sc *script) created() []Schema {
	var out []Schema
	for _, st := range sc.steps {
		if st.kind == stepCreate {
			out = append(out, sc.schemas[st.table])
		}
	}
	return out
}

// chooser is the generator's source of choices: a seeded *rand.Rand, or
// fuzz bytes (byteChooser).
type chooser interface{ Intn(n int) int }

// byteChooser draws choices from bytes, as many as n needs, and zeros
// once they run out.
type byteChooser []byte

func (b *byteChooser) Intn(n int) int {
	var v uint64
	for m := n - 1; m > 0; m >>= 8 {
		v <<= 8
		if len(*b) > 0 {
			v |= uint64((*b)[0])
			*b = (*b)[1:]
		}
	}
	return int(v % uint64(n))
}

// genScript generates a script of n steps and replays it on the model.
func genScript(c chooser, n int) *script {
	sc := &script{schemas: make(map[string]Schema)}
	order := formSchemas()
	for _, s := range order {
		sc.schemas[s.Name] = s
	}
	var tables []string
	key := func(table string, lane int) string {
		return fmt.Sprintf("%s%02d", table[:1], lane+scriptLanes*c.Intn(laneKeys))
	}
	for len(sc.steps) < n {
		if len(tables) == 0 || (len(tables) < len(order) && c.Intn(12) == 0) {
			tables = append(tables, order[len(tables)].Name)
			sc.steps = append(sc.steps, step{kind: stepCreate, lane: -1, table: tables[len(tables)-1]})
			continue
		}
		table := tables[c.Intn(len(tables))]
		switch k := c.Intn(20); {
		case k < 13:
			st := step{kind: stepTx, lane: c.Intn(scriptLanes), abort: c.Intn(8) == 0}
			for i, ops := 0, 1+c.Intn(4); i < ops; i++ {
				table := tables[c.Intn(len(tables))]
				op := txOp{table: table}
				switch c.Intn(6) {
				case 0:
					op.seq = true
				case 1:
					op.key = key(table, st.lane)
				default:
					op.key = key(table, st.lane)
					op.row = genRow(c, sc.schemas[table], op.key)
				}
				st.ops = append(st.ops, op)
			}
			sc.steps = append(sc.steps, st)
		case k < 15:
			lane := c.Intn(scriptLanes)
			sc.steps = append(sc.steps, step{kind: stepGet, lane: lane, table: table, key: key(table, lane)})
		case k < 19:
			cols := slices.DeleteFunc(slices.Clone(sc.schemas[table].Columns), func(c Column) bool { return !c.Indexed })
			if len(cols) > 0 {
				col := cols[c.Intn(len(cols))].Name
				sc.steps = append(sc.steps, step{kind: stepSelect, lane: -1, table: table, col: col, val: indexedValue(c, col), limit: c.Intn(4)})
			}
		default:
			sc.steps = append(sc.steps, step{kind: stepCompact, lane: -1})
		}
	}
	sc.replay()
	return sc
}

// indexedValue draws from three values per column, so puts move rows
// between them.
func indexedValue(c chooser, col string) string { return fmt.Sprintf("%s-%d", col, c.Intn(3)) }

// genRow draws a row for key: nullable columns are sometimes absent, and
// values include the extremes of each type.
func genRow(c chooser, s Schema, key string) Row {
	r := Row{s.Key: key}
	for _, col := range s.Columns {
		if col.Name == s.Key || (col.Nullable && c.Intn(4) == 0) {
			continue
		}
		switch col.Type {
		case TString:
			if col.Indexed {
				r[col.Name] = indexedValue(c, col.Name)
				continue
			}
			pieces := []string{"", "a", "Z", "é", "✓", "\x00", " ", "\xff"}
			var b strings.Builder
			for i, n := 0, c.Intn(4); i < n; i++ {
				b.WriteString(pieces[c.Intn(len(pieces))])
			}
			r[col.Name] = b.String()
		case TInt:
			r[col.Name] = []int64{math.MinInt64, math.MaxInt64, int64(c.Intn(1<<20)) - 1<<19}[min(c.Intn(8), 2)]
		case TBool:
			r[col.Name] = c.Intn(2) == 1
		case TBytes:
			b := make([]byte, c.Intn(40))
			for i := range b {
				b[i] = byte(c.Intn(256))
			}
			r[col.Name] = b
		case TTime:
			r[col.Name] = []time.Time{{}, time.Unix(int64(c.Intn(1<<32))-1<<31, int64(c.Intn(1e9)))}[min(c.Intn(8), 1)]
		}
	}
	return r
}

// storeModel is the reference: a map of rows and a sequence per table.
type storeModel struct {
	schemas map[string]Schema
	seqs    map[string]int64
	rows    map[string]map[string]Row
}

// replay runs the script on a fresh model, filling in every read's
// answer and the state after every commit.
func (sc *script) replay() {
	m := &storeModel{schemas: make(map[string]Schema), seqs: make(map[string]int64), rows: make(map[string]map[string]Row)}
	sc.states = []storeState{m.state()}
	for i := range sc.steps {
		st := &sc.steps[i]
		switch st.kind {
		case stepCreate:
			m.schemas[st.table] = sc.schemas[st.table]
			m.rows[st.table] = make(map[string]Row)
		case stepGet:
			st.want = []string{renderRow(m.schemas[st.table], m.rows[st.table][st.key])}
		case stepSelect:
			for _, row := range m.sorted(st.table) {
				if row[st.col] == st.val && (st.limit == 0 || len(st.want) < st.limit) {
					st.want = append(st.want, renderRow(m.schemas[st.table], row))
				}
			}
		case stepTx:
			puts := make(map[[2]string]Row)
			seqs := maps.Clone(m.seqs)
			for j := range st.ops {
				op := &st.ops[j]
				switch {
				case op.row != nil:
					puts[[2]string{op.table, op.key}] = op.row
				case op.seq:
					seqs[op.table]++
					op.wantSeq = seqs[op.table]
				default:
					row, ok := puts[[2]string{op.table, op.key}]
					if !ok {
						row = m.rows[op.table][op.key]
					}
					op.want = renderRow(m.schemas[op.table], row)
				}
			}
			if st.abort {
				continue
			}
			for k, row := range puts {
				m.rows[k[0]][k[1]] = row
			}
			m.seqs = seqs
		}
		if st.commits() {
			sc.states = append(sc.states, m.state())
		}
	}
}

// sorted returns a table's rows in key order, the order Select returns.
func (m *storeModel) sorted(table string) []Row {
	rows := m.rows[table]
	out := make([]Row, 0, len(rows))
	for _, k := range slices.Sorted(maps.Keys(rows)) {
		out = append(out, rows[k])
	}
	return out
}

func (m *storeModel) state() storeState {
	var st storeState
	for name, s := range m.schemas {
		rows := m.sorted(name)
		st = append(st, renderTable(s, m.seqs[name], rows, func(col, val string) []string {
			var keys []string
			for _, row := range rows {
				if row[col] == val {
					keys = append(keys, row[s.Key].(string))
				}
			}
			return keys
		})...)
	}
	slices.Sort(st)
	return st
}

// storeState is a store's state as sorted, canonical lines.
type storeState []string

// stateOf reads db's state through one View: each table's rows as Select
// returns them, its sequence, and for every value an indexed column
// holds, the keys Select(Eq) returns.
func stateOf(db *DB) storeState {
	var st storeState
	db.View(func(tx *Tx) error {
		for name, t := range tx.db.tables {
			rows, err := tx.Select(name, nil)
			st = append(st, renderTable(t.schema, t.seq, rows, func(col, val string) []string {
				var keys []string
				eq, _ := tx.Select(name, NewQuery().Eq(col, val))
				for _, row := range eq {
					keys = append(keys, row[t.schema.Key].(string))
				}
				return keys
			})...)
			if err != nil {
				return err
			}
		}
		return nil
	})
	slices.Sort(st)
	return st
}

// renderTable renders one table: a line for its schema and sequence, one
// per row, and one per value of each indexed column with the keys
// selectEq finds for it.
func renderTable(s Schema, seq int64, rows []Row, selectEq func(col, val string) []string) []string {
	schema, _ := json.Marshal(s)
	out := []string{fmt.Sprintf("%s seq=%d schema=%s", s.Name, seq, schema)}
	for _, row := range rows {
		out = append(out, fmt.Sprintf("%s row %s", s.Name, renderRow(s, row)))
	}
	for _, col := range s.Columns {
		if !col.Indexed {
			continue
		}
		vals := make(map[string]bool)
		for _, row := range rows {
			if v, ok := row[col.Name].(string); ok {
				vals[v] = true
			}
		}
		for _, v := range slices.Sorted(maps.Keys(vals)) {
			out = append(out, fmt.Sprintf("%s index %s=%q -> %q", s.Name, col.Name, v, selectEq(col.Name, v)))
		}
	}
	return out
}

// renderRow renders a row's column count and values in schema order;
// "none" for a missing row.
func renderRow(s Schema, row Row) string {
	if row == nil {
		return "none"
	}
	b := fmt.Sprintf("%d columns:", len(row))
	for _, col := range s.Columns {
		if v, ok := row[col.Name]; ok {
			b += " " + col.Name + "=" + renderValue(v)
		}
	}
	return b
}

// renderValue renders a value so that two render alike exactly when they
// are equal: bytes by content (a long value by its head, length and
// hash), times by instant.
func renderValue(v any) string {
	switch v := v.(type) {
	case string:
		return strconv.Quote(v)
	case int64, bool:
		return fmt.Sprint(v)
	case []byte:
		if len(v) <= 32 {
			return "x" + hex.EncodeToString(v)
		}
		h := fnv.New64a()
		h.Write(v)
		return fmt.Sprintf("x%s…(%d bytes, fnv64a %016x)", hex.EncodeToString(v[:16]), len(v), h.Sum64())
	case time.Time:
		return "@" + v.UTC().Format(time.RFC3339Nano)
	}
	return fmt.Sprintf("%T(%v)", v, v)
}

// checkState fails t unless got equals want, printing both states line
// by line: "-" only in want, "+" only in got.
func checkState(t testing.TB, what string, want, got storeState) {
	t.Helper()
	if slices.Equal(want, got) {
		return
	}
	var b strings.Builder
	for len(want) > 0 || len(got) > 0 {
		switch {
		case len(got) == 0 || (len(want) > 0 && want[0] < got[0]):
			b.WriteString("- " + want[0] + "\n")
			want = want[1:]
		case len(want) == 0 || got[0] < want[0]:
			b.WriteString("+ " + got[0] + "\n")
			got = got[1:]
		default:
			b.WriteString("  " + want[0] + "\n")
			want, got = want[1:], got[1:]
		}
	}
	t.Fatalf("%s: the state differs (- want, + got):\n%s", what, b.String())
}

var (
	// errAbort is what an aborted transaction's callback returns.
	errAbort = errors.New("script: transaction aborted")
	// errDiffers marks a read that disagreed with the model.
	errDiffers = errors.New("differs from the model")
)

// playOpts says how play drives a store: acting on the Compact points
// or not, playing one lane's transactions and Gets or (-1) every step,
// and what to run after each acknowledged commit.
type playOpts struct {
	compact     bool
	lane        int
	afterCommit func()
}

// allLanes plays a whole script in order.
var allLanes = playOpts{lane: -1}

// play drives steps into db, checking every read against the model. It
// returns the number of commits acknowledged and the first error: a
// store error, or one wrapping errDiffers. Only a whole-script player
// checks NextSeq values and Selects, which see every lane's writes.
func (sc *script) play(db *DB, steps []step, p playOpts) (commits int, _ error) {
	shared := p.lane < 0
	for i := range steps {
		st := &steps[i]
		if !shared && st.lane != p.lane {
			continue
		}
		var err error
		switch st.kind {
		case stepCreate:
			err = db.CreateTable(sc.schemas[st.table])
		case stepTx:
			err = db.Update(func(tx *Tx) error {
				for _, op := range st.ops {
					switch {
					case op.row != nil:
						if err := tx.Put(op.table, op.row); err != nil {
							return err
						}
					case op.seq:
						v, err := tx.NextSeq(op.table)
						if err != nil {
							return err
						}
						if shared && v != op.wantSeq {
							return fmt.Errorf("%w: NextSeq(%s) = %d, model %d", errDiffers, op.table, v, op.wantSeq)
						}
					default:
						got, err := sc.get(tx, op.table, op.key)
						if err != nil {
							return err
						}
						if got != op.want {
							return fmt.Errorf("%w: Get(%s, %s) in the transaction = %s, model %s", errDiffers, op.table, op.key, got, op.want)
						}
					}
				}
				if st.abort {
					return errAbort
				}
				return nil
			})
			if st.abort && errors.Is(err, errAbort) {
				continue
			}
		case stepCompact:
			if p.compact {
				err = db.Compact()
			}
		case stepGet, stepSelect:
			if st.kind == stepSelect && !shared {
				continue
			}
			var got []string
			err = db.View(func(tx *Tx) error {
				if st.kind == stepGet {
					row, err := sc.get(tx, st.table, st.key)
					got = []string{row}
					return err
				}
				q := NewQuery().Eq(st.col, st.val).Limit(st.limit)
				return tx.SelectFunc(st.table, q, func(row Row) bool {
					got = append(got, renderRow(sc.schemas[st.table], row))
					return true
				})
			})
			if err == nil && !slices.Equal(got, st.want) {
				err = fmt.Errorf("%w: read %q, model %q", errDiffers, got, st.want)
			}
		}
		if err != nil {
			return commits, fmt.Errorf("step %d (%s): %w", i, st, err)
		}
		if st.commits() {
			commits++
			if p.afterCommit != nil {
				p.afterCommit()
			}
		}
	}
	return commits, nil
}

// get renders the row tx.Get returns, "none" for ErrNotFound.
func (sc *script) get(tx *Tx, table, key string) (string, error) {
	row, err := tx.Get(table, key)
	if errors.Is(err, ErrNotFound) {
		err = nil
	}
	return renderRow(sc.schemas[table], row), err
}

// mustPlay plays steps and fails t on any error.
func (sc *script) mustPlay(t testing.TB, db *DB, steps []step, p playOpts) int {
	t.Helper()
	n, err := sc.play(db, steps, p)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// processSeed is the run's one seed: CHRONOS_MODEL_SEED when set, the
// clock otherwise.
var processSeed = sync.OnceValues(func() (int64, error) {
	if s := os.Getenv("CHRONOS_MODEL_SEED"); s != "" {
		return strconv.ParseInt(s, 10, 64)
	}
	return time.Now().UnixNano(), nil
})

// modelSeed returns the run's seed and logs how to replay it.
func modelSeed(t testing.TB) int64 {
	t.Helper()
	seed, err := processSeed()
	if err != nil {
		t.Fatalf("bad CHRONOS_MODEL_SEED: %v", err)
	}
	t.Logf("seed %d (replay with CHRONOS_MODEL_SEED=%d)", seed, seed)
	return seed
}

// openForm opens a durable store in dir and closes it when t ends.
func openForm(t testing.TB, dir string, opts Options) *DB {
	t.Helper()
	db, err := Open(dir, &opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// reopen closes db and opens its directory again with opts.
func reopen(t testing.TB, db *DB, dir string, opts Options) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return openForm(t, dir, opts)
}

// halves splits a script's steps in two.
func (sc *script) halves() [2][]step {
	h := len(sc.steps) / 2
	return [2][]step{sc.steps[:h], sc.steps[h:]}
}

// durableForm plays the script's halves on a durable store, checking it
// live and reopened after each (so NextSeq continues across a reopen);
// a compacting store must have compacted once a half reaches CompactEvery.
func durableForm(opts Options, compact bool) func(*testing.T, *script) {
	return func(t *testing.T, sc *script) {
		dir := t.TempDir()
		db, k := openForm(t, dir, opts), 0
		for _, steps := range sc.halves() {
			n := sc.mustPlay(t, db, steps, playOpts{lane: -1, compact: compact})
			k += n
			db.WaitCompaction()
			if st := db.Stats(); compact && n >= opts.CompactEvery && (st.Compactions == 0 || st.Snapshots != 1) {
				t.Fatalf("%d commits ran no compaction: %+v", n, st)
			}
			checkState(t, fmt.Sprintf("store after %d commits", k), sc.states[k], stateOf(db))
			db = reopen(t, db, dir, opts)
			checkState(t, fmt.Sprintf("store reopened after %d commits", k), sc.states[k], stateOf(db))
		}
	}
}

// storeForms is every form a store can take from one writer, each
// checked against the model its own way; the cheap ones also run under
// FuzzStoreForms. concurrentForm, the script on concurrent writers, runs
// under its own tests, once per sync mode.
var storeForms = []struct {
	name  string
	cheap bool
	run   func(t *testing.T, sc *script)
}{
	{"memory", true, func(t *testing.T, sc *script) {
		db := OpenMemory()
		sc.mustPlay(t, db, sc.steps, allLanes)
		checkState(t, "memory store", sc.final(), stateOf(db))
	}},
	{"durable", true, durableForm(Options{Sync: SyncBatched, CompactEvery: -1, SegmentBytes: 1 << 10}, false)},
	// Background compaction every few commits and at the Compact points.
	{"compacted", true, durableForm(Options{Sync: SyncBatched, CompactEvery: 8, SegmentBytes: 512}, true)},
	// A follower fed the leader's log halfway, restarted, and fed the
	// rest: it resumes where it stopped and ends at the leader's position.
	{"follower-shipped", false, func(t *testing.T, sc *script) {
		leader, fdir := openLeader(t, t.TempDir()), t.TempDir()
		follower, k := openFollower(t, fdir), 0
		for _, steps := range sc.halves() {
			k += sc.mustPlay(t, leader, steps, allLanes)
			shipAll(t, leader, follower)
			checkState(t, fmt.Sprintf("follower shipped %d commits", k), sc.states[k], stateOf(follower))
			pos, _, err := leader.ShipPosition()
			if err != nil {
				t.Fatal(err)
			}
			if s, o := follower.FollowerPosition(); s != pos.WALSeq || o != pos.Durable {
				t.Fatalf("follower at (%d,%d), leader at (%d,%d)", s, o, pos.WALSeq, pos.Durable)
			}
			follower = reopen(t, follower, fdir, Options{Follower: true, CompactEvery: -1})
			checkState(t, fmt.Sprintf("follower restarted after %d commits", k), sc.states[k], stateOf(follower))
			if s, o := follower.FollowerPosition(); s != pos.WALSeq || o != pos.Durable {
				t.Fatalf("restarted follower at (%d,%d), want (%d,%d)", s, o, pos.WALSeq, pos.Durable)
			}
		}
	}},
	// A follower holding other state, re-bootstrapped from the leader's
	// snapshot of the first half, then fed the second half's log.
	{"follower-reinit", false, func(t *testing.T, sc *script) {
		leader, follower := openLeader(t, t.TempDir()), openFollower(t, t.TempDir())
		k := sc.mustPlay(t, leader, sc.halves()[0], playOpts{lane: -1, compact: true})
		if err := leader.Compact(); err != nil {
			t.Fatal(err)
		}
		if _, err := follower.FollowerApply(append(frameCreate(t, fuzzSchema), fuzzSegment(t, 2)...)); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(leader.SnapshotFilePath())
		if err == nil {
			err = follower.FollowerReinit(bytes.NewReader(snap))
		}
		if err != nil {
			t.Fatal(err)
		}
		boundary := leader.snapSeq.Load()
		if seq, off := follower.FollowerPosition(); seq != boundary+1 || off != 0 {
			t.Fatalf("after snapshot reinit at (%d,%d), want (%d,0)", seq, off, boundary+1)
		}
		checkState(t, "follower bootstrapped from the snapshot", sc.states[k], stateOf(follower))
		sc.mustPlay(t, leader, sc.halves()[1], allLanes)
		shipAll(t, leader, follower)
		checkState(t, "re-bootstrapped follower", sc.final(), stateOf(follower))
	}},
	// Every commit's prefix of the leader's log, copied to a fresh
	// directory, opens to the model after that many commits.
	{"every-prefix", false, func(t *testing.T, sc *script) {
		leader := openForm(t, t.TempDir(), Options{Sync: SyncBatched, CompactEvery: -1, SegmentBytes: 4 << 10})
		bounds := []ShipPosition{{WALSeq: 1}}
		sc.mustPlay(t, leader, sc.steps, playOpts{lane: -1, afterCommit: func() {
			pos, _, err := leader.ShipPosition()
			if err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, pos)
		}})
		if len(bounds) > 1 && bounds[len(bounds)-1].WALSeq < 2 {
			t.Fatalf("the script's log fits one segment: %+v", bounds[len(bounds)-1])
		}
		for k, pos := range bounds {
			dir := t.TempDir()
			for seq := int64(1); seq <= pos.WALSeq; seq++ {
				data, err := os.ReadFile(leader.SegmentPath(seq))
				if seq == pos.WALSeq {
					data = data[:pos.Durable]
				}
				if err == nil {
					err = os.WriteFile(filepath.Join(dir, segmentName(seq)), data, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			db := openForm(t, dir, Options{CompactEvery: -1, SegmentBytes: 4 << 10})
			checkState(t, fmt.Sprintf("log prefix of %d commits", k), sc.states[k], stateOf(db))
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

// concurrentForm splits the script over one writer per lane,
// group-committing with readers scanning beside them, then reopens the
// store.
func concurrentForm(opts Options) func(t *testing.T, sc *script) {
	return func(t *testing.T, sc *script) {
		dir := t.TempDir()
		db := openForm(t, dir, opts)
		created := sc.created()
		if err := db.CreateTable(created...); err != nil {
			t.Fatal(err)
		}
		var writers, readers sync.WaitGroup
		stop := make(chan struct{})
		read := func() {
			defer readers.Done()
			for {
				for _, s := range created {
					db.View(func(tx *Tx) error {
						return tx.SelectFunc(s.Name, nil, func(row Row) bool {
							if err := s.validate(row); err != nil {
								t.Errorf("a reader saw %v", err)
							}
							return true
						})
					})
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}
		readers.Add(2)
		go read()
		go read()
		for lane := range scriptLanes {
			writers.Add(1)
			go func() {
				defer writers.Done()
				if _, err := sc.play(db, sc.steps, playOpts{lane: lane}); err != nil {
					t.Errorf("lane %d: %v", lane, err)
				}
			}()
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		db.WaitCompaction()
		checkState(t, "store of concurrent writers", sc.final(), stateOf(db))
		db = reopen(t, db, dir, opts)
		checkState(t, "store of concurrent writers reopened", sc.final(), stateOf(db))
	}
}

// seededScript is the script every seeded form test plays.
func seededScript(t *testing.T) *script {
	return genScript(rand.New(rand.NewSource(modelSeed(t))), 160)
}

// TestStoreForms drives one seeded script through every store form.
func TestStoreForms(t *testing.T) {
	sc := seededScript(t)
	for _, form := range storeForms {
		t.Run(form.name, func(t *testing.T) {
			t.Parallel()
			form.run(t, sc)
		})
	}
}

// TestConcurrentStoreAgreesWithModel runs the seeded script's lanes on
// concurrent writers of a batched-sync store that compacts as they go.
func TestConcurrentStoreAgreesWithModel(t *testing.T) {
	t.Parallel()
	concurrentForm(Options{Sync: SyncBatched, CompactEvery: 16, SegmentBytes: 4 << 10})(t, seededScript(t))
}

// TestGroupCommitConcurrentDurability runs the seeded script's lanes
// through the fsynced group commit: every acknowledged commit must
// survive the reopen, replayed from the log alone.
func TestGroupCommitConcurrentDurability(t *testing.T) {
	t.Parallel()
	concurrentForm(Options{CompactEvery: -1, SegmentBytes: 4 << 10})(t, seededScript(t))
}

// FuzzStoreForms decodes bytes into a script and runs it through the
// cheap forms.
func FuzzStoreForms(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := byteChooser(data)
		sc := genScript(&c, min(len(data)/3, 64))
		for _, form := range storeForms {
			if form.cheap {
				form.run(t, sc)
			}
		}
	})
}

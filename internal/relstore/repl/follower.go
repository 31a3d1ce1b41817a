package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/api"
	"chronos/internal/metrics"
	"chronos/internal/relstore"
)

// Config tunes a Follower.
type Config struct {
	// Dir is the replica's local store directory (its own WAL mirror —
	// never the leader's directory).
	Dir string
	// Leader is the leader's base URL, e.g. http://leader:8080.
	Leader string
	// APIVersion selects the leader API version path ("v2" when empty).
	APIVersion string
	// ReplToken authenticates against the leader's ship endpoints.
	// Empty works only against a leader with no auth at all.
	ReplToken string
	// PollWait is the long-poll budget per tail request (10s when zero).
	PollWait time.Duration
	// RetryEvery is the base reconnect delay after a transport error (1s
	// when zero). Consecutive failures without progress back off
	// exponentially (with jitter) from here up to RetryMax, so a
	// flapping or partitioned leader is not hammered at a constant rate;
	// any successful round resets the delay to this base.
	RetryEvery time.Duration
	// RetryMax caps the backed-off reconnect delay (30s when zero).
	RetryMax time.Duration
	// CompactEvery configures local compaction of the replica's own WAL
	// mirror, same semantics as relstore.Options.CompactEvery (0 =
	// default, negative = never). Local compaction keeps a long-lived
	// replica's disk bounded without any leader involvement.
	CompactEvery int
	// HTTPClient overrides the transport (tests); nil uses a default.
	HTTPClient *http.Client
	// Logger receives replication progress lines; nil uses the default
	// logger.
	Logger *log.Logger
	// Metrics, when non-nil, instruments both the replica store
	// (chronos_store_* series, threaded into relstore.Open) and the
	// replication loop itself (chronos_repl_* series: lag, staleness,
	// re-bootstrap count, chunks and commits applied).
	Metrics *metrics.Registry
}

// Follower replicates a leader's store into a local read-only replica
// and keeps it converging. Start it with Start; read through DB().
type Follower struct {
	cfg    Config
	db     *relstore.DB
	client *Client
	log    *log.Logger

	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	leaderTip  relstore.ShipPosition // as of the last successful contact
	tipKnown   bool
	bootstraps int64
	lastErr    error
	// caughtUpAt is when the applied position last provably matched the
	// leader's durable tip — the basis of the bounded-staleness budget.
	// Zero until the first catch-up.
	caughtUpAt time.Time

	// progress records that the current replicate pass achieved
	// something (a clean tail round, applied bytes, or a bootstrap);
	// run() resets its reconnect backoff when it did.
	progress atomic.Bool

	// chunks counts tail responses that applied at least one frame and
	// commits the frames (one per leader commit) they carried: their
	// ratio is how well shipping batches on its own.
	chunks, commits atomic.Int64

	// Torn-frame strike tracking (touched only by the run goroutine): a
	// frame that keeps failing its CRC at the same offset is not a
	// transient transport hiccup but divergence (a leader restored from
	// older data) or rot — escalated to a re-bootstrap.
	tornSeq, tornOff int64
	tornStrikes      int
}

// tornStrikeLimit is how many consecutive zero-progress torn frames at
// one offset the follower retries before falling back to a snapshot
// re-bootstrap.
const tornStrikeLimit = 5

// Start opens (or creates) the replica store in cfg.Dir in follower mode
// and launches the replication loop. The returned Follower's DB serves
// reads immediately — from whatever state the replica already holds —
// while the loop catches up with the leader in the background.
func Start(cfg Config) (*Follower, error) {
	if cfg.Dir == "" || cfg.Leader == "" {
		return nil, errors.New("repl: Config needs Dir and Leader")
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = time.Second
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 30 * time.Second
	}
	cfg.RetryMax = max(cfg.RetryMax, cfg.RetryEvery)
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	db, err := relstore.Open(cfg.Dir, &relstore.Options{Follower: true, CompactEvery: cfg.CompactEvery, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	if rerr := db.OpenReset(); rerr != nil {
		// E.g. a crash while mirroring divergent leader history: the
		// replica was unrecoverable and was wiped; the loop below
		// re-bootstraps it from the leader's snapshot.
		cfg.Logger.Printf("repl: replica %s was unrecoverable and was reset (%v); re-bootstrapping", cfg.Dir, rerr)
	}
	f := &Follower{
		cfg:    cfg,
		db:     db,
		client: NewClient(cfg.Leader, cfg.APIVersion, cfg.ReplToken, cfg.HTTPClient),
		log:    cfg.Logger,
		done:   make(chan struct{}),
	}
	f.registerMetrics(cfg.Metrics)
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(ctx)
	return f, nil
}

// registerMetrics exposes the replication loop's progress as pull-time
// series: the gauges read what Status() already maintains and the two
// shipping counters cost the loop one atomic add per chunk each.
func (f *Follower) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("chronos_repl_lag_segments",
		"Whole WAL segments the follower trails the leader by.",
		func() float64 { return float64(f.Status().LagSegments) })
	reg.GaugeFunc("chronos_repl_lag_bytes",
		"Byte lag behind the leader's durable tip (-1: different segments).",
		func() float64 { return float64(f.Status().LagBytes) })
	reg.GaugeFunc("chronos_repl_staleness_ms",
		"Milliseconds since the follower last proved itself caught up (-1: never).",
		func() float64 { return float64(f.Status().StalenessMs) })
	reg.CounterFunc("chronos_repl_bootstraps_total",
		"Snapshot re-bootstraps (1 is the initial one of a fresh replica).",
		func() float64 { return float64(f.Status().Bootstraps) })
	reg.CounterFunc("chronos_repl_chunks_total",
		"Shipped WAL chunks applied (one tail response, one local fsync each).",
		func() float64 { return float64(f.chunks.Load()) })
	reg.CounterFunc("chronos_repl_commits_applied_total",
		"Leader commits applied from shipped WAL chunks.",
		func() float64 { return float64(f.commits.Load()) })
}

// DB returns the read-only replica store. Local writes on it fail with
// relstore.ErrReadOnly.
func (f *Follower) DB() *relstore.DB { return f.db }

// Close stops the replication loop and closes the replica store.
func (f *Follower) Close() error {
	f.cancel()
	<-f.done
	return f.db.Close()
}

// Status reports the follower's replication progress. The applied
// position is what reads on the replica actually observe; it can trail
// the locally durable bytes while a shipped chunk is still being
// applied.
func (f *Follower) Status() api.ReplStatus {
	seq, off := f.db.FollowerAppliedPosition()
	genID, genEpoch, genKnown := f.db.Generation()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := api.ReplStatus{
		Leader:       f.cfg.Leader,
		AppliedSeq:   seq,
		AppliedBytes: off,
		Bootstraps:   f.bootstraps,
		LagBytes:     -1,
		StalenessMs:  -1,
	}
	if genKnown {
		st.StoreID, st.Epoch = genID, genEpoch
	}
	if !f.caughtUpAt.IsZero() {
		st.StalenessMs = time.Since(f.caughtUpAt).Milliseconds()
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	if f.tipKnown {
		st.LeaderSeq = f.leaderTip.WALSeq
		st.LeaderBytes = f.leaderTip.Durable
		st.LagSegments = max(f.leaderTip.WALSeq-seq, 0)
		if f.leaderTip.WALSeq == seq {
			st.LagBytes = max(f.leaderTip.Durable-off, 0)
		}
	}
	return st
}

// run is the replication loop: converge, and on any error back off and
// reconverge, until the context ends. The reconnect delay grows
// exponentially (with jitter, so a fleet of followers does not stampede
// a recovering leader in lockstep) while passes fail without progress,
// and snaps back to the base the moment one achieves anything.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	backoff := f.cfg.RetryEvery
	for ctx.Err() == nil {
		f.progress.Store(false)
		err := f.replicate(ctx)
		if err == nil || ctx.Err() != nil {
			return
		}
		f.setErr(err)
		if f.progress.Load() {
			backoff = f.cfg.RetryEvery
		}
		// Uniform in [backoff/2, backoff]: enough spread to decorrelate
		// followers without ever collapsing the delay to ~zero.
		delay := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		f.log.Printf("repl: follower: %v (retrying in %v)", err, delay.Round(time.Millisecond))
		backoff = min(backoff*2, f.cfg.RetryMax)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
		}
	}
}

// replicate brings the replica to the leader's tip and keeps tailing.
// It returns nil only when ctx ends.
func (f *Follower) replicate(ctx context.Context) error {
	// One status round-trip up front: if the leader's snapshot has moved
	// past our position — a fresh replica, or one the leader compacted
	// out from under — segments we need are gone, so bootstrap from the
	// snapshot instead of discovering it through a 410 per segment.
	tip, err := f.client.Status(ctx)
	if err != nil {
		return fmt.Errorf("leader status: %w", err)
	}
	f.setTip(tip)
	if seq, _ := f.db.FollowerPosition(); seq <= tip.SnapshotSeq {
		if err := f.bootstrap(ctx); err != nil {
			return err
		}
	} else if tip.StoreID != "" {
		// The leader names a generation. If it is not the one our state
		// was verified against — a leader restart since last contact, a
		// fresh replica, or a pre-generation replica directory — prove
		// our history is a prefix of the leader's before trusting any
		// position comparison again.
		if id, epoch, ok := f.db.Generation(); !ok || id != tip.StoreID || epoch != tip.Epoch {
			if err := f.adoptGeneration(ctx, tip); err != nil {
				return err
			}
		}
	}

	for ctx.Err() == nil {
		seq, off := f.db.FollowerPosition()
		chunk, err := f.client.TailWAL(ctx, seq, off, f.cfg.PollWait)
		if errors.Is(err, ErrSegmentGone) {
			// The leader compacted our position away (or our history
			// diverged from its): start over from its snapshot.
			if err := f.bootstrap(ctx); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("tail segment %d: %w", seq, err)
		}
		if chunk.Gen.Known() {
			// A restarted leader may answer the next tail without any
			// transport error (keep-alive reconnects transparently). The
			// generation riding on the chunk betrays it: stop before
			// applying anything and re-verify our history first.
			if id, epoch, ok := f.db.Generation(); !ok || id != chunk.Gen.StoreID || epoch != chunk.Gen.Epoch {
				return fmt.Errorf("leader generation moved to %s mid-tail; re-verifying", chunk.Gen)
			}
		}
		f.observeTip(seq, chunk)
		if len(chunk.Data) > 0 {
			n, aerr := f.db.FollowerApply(chunk.Data)
			if n > 0 && (aerr == nil || relstore.IsTornFrame(aerr)) {
				f.chunks.Add(1)
				f.commits.Add(countFrames(chunk.Data[:n]))
			}
			if aerr != nil {
				if relstore.IsTornFrame(aerr) {
					// A frame cut mid-byte (short response, flipped bits
					// — anything the CRC rejects): whole frames before
					// the damage are applied and durable, so re-request
					// from the advanced position. Zero progress means
					// the damage sits at our exact offset; surface it
					// and let run() pace the retries — and once it
					// repeats at the same offset, stop retrying what
					// will never parse (divergent or rotted leader
					// bytes) and re-bootstrap instead.
					if n > 0 {
						f.tornStrikes = 0
						f.progress.Store(true)
						continue
					}
					if seq == f.tornSeq && off == f.tornOff {
						f.tornStrikes++
					} else {
						f.tornSeq, f.tornOff, f.tornStrikes = seq, off, 1
					}
					if f.tornStrikes >= tornStrikeLimit {
						f.tornStrikes = 0
						f.setErr(fmt.Errorf("segment %d offset %d: persistent corruption: %w", seq, off, aerr))
						if err := f.bootstrap(ctx); err != nil {
							return err
						}
						continue
					}
					return fmt.Errorf("segment %d offset %d: %w", seq, off, aerr)
				}
				// Well-framed but unappliable history: the replica is
				// poisoned and only a fresh bootstrap recovers.
				f.setErr(fmt.Errorf("apply segment %d: %w", seq, aerr))
				if err := f.bootstrap(ctx); err != nil {
					return err
				}
				continue
			}
			_, off = f.db.FollowerPosition()
		}
		// A full clean round — data applied, or an idle poll — means the
		// pipeline is healthy; clear any stale error from Status, reset
		// the reconnect backoff and refresh the staleness clock.
		f.noteCleanRound()
		if chunk.Sealed && off >= chunk.End {
			// Advance only once every byte of the sealed segment is
			// durable locally — a truncated response body cannot skip
			// frames because End comes from the protocol header, not
			// from the body length.
			if err := f.db.FollowerAdvanceSegment(); err != nil {
				return fmt.Errorf("advance past segment %d: %w", seq, err)
			}
		}
	}
	return nil
}

// bootstrap wipes the replica and restores it from the leader's current
// snapshot (or to empty when the leader has never compacted). The
// restored state derives from the serving leader's history by
// construction, so its generation — stamped on the snapshot response —
// is adopted without verification. (A snapshot file predating a clean
// leader restart is still a prefix of the current epoch's history, so
// stamping it with the serving process's epoch is sound.)
func (f *Follower) bootstrap(ctx context.Context) error {
	rc, gen, err := f.client.Snapshot(ctx)
	if err != nil && !errors.Is(err, ErrNoSnapshot) {
		return fmt.Errorf("fetch snapshot: %w", err)
	}
	if rc != nil {
		defer rc.Close()
		if err := f.db.FollowerReinit(rc); err != nil {
			return fmt.Errorf("restore snapshot: %w", err)
		}
	} else {
		if err := f.db.FollowerReinit(nil); err != nil {
			return fmt.Errorf("reset replica: %w", err)
		}
	}
	// Count the bootstrap the moment the state swap lands: Reinit moved
	// the applied position, so a convergence barrier can return from
	// here on and must already observe the incremented counter.
	f.progress.Store(true)
	f.mu.Lock()
	f.bootstraps++
	n := f.bootstraps
	f.lastErr = nil // a fresh bootstrap is a recovery
	f.mu.Unlock()
	if gen.Known() {
		if err := f.db.SetFollowerGeneration(gen.StoreID, gen.Epoch); err != nil {
			return fmt.Errorf("record generation: %w", err)
		}
	}
	seq, _ := f.db.FollowerPosition()
	f.log.Printf("repl: follower bootstrapped from %s (bootstrap #%d, resuming at segment %d)", f.cfg.Leader, n, seq)
	return nil
}

// adoptGeneration reconciles the replica with a leader generation its
// state was not verified against. If the local WAL tail is byte-for-byte
// identical to what the leader serves under the new generation — the
// clean-restart case — the generation is adopted in place; otherwise
// (diverged history, or nothing left to compare) the replica
// re-bootstraps from the leader's snapshot. Either way, token-gated
// reads were failing closed from the moment the mismatch was noticed
// until the new generation is recorded.
func (f *Follower) adoptGeneration(ctx context.Context, tip relstore.ShipPosition) error {
	if seq, off := f.db.FollowerPosition(); seq == 1 && off == 0 {
		// A virgin replica — no snapshot, not one byte mirrored — holds
		// nothing any history could disagree with: adopt the generation
		// as-is and let plain tailing fill it (no bootstrap needed).
		if err := f.db.SetFollowerGeneration(tip.StoreID, tip.Epoch); err != nil {
			return fmt.Errorf("record generation: %w", err)
		}
		return nil
	}
	if f.verifyPrefix(ctx, tip) {
		if err := f.db.SetFollowerGeneration(tip.StoreID, tip.Epoch); err != nil {
			return fmt.Errorf("record generation: %w", err)
		}
		f.progress.Store(true)
		f.log.Printf("repl: follower verified local history against leader generation %s:%d", tip.StoreID, tip.Epoch)
		return nil
	}
	f.log.Printf("repl: follower cannot verify local history against leader generation %s:%d; re-bootstrapping", tip.StoreID, tip.Epoch)
	return f.bootstrap(ctx)
}

// verifyPrefix byte-compares the replica's current WAL segment prefix
// with the leader's copy. True means the local tail sits on the leader's
// history; a clean leader restart passes (identical bytes), a leader
// restored from diverged data fails (different bytes, or the leader
// cannot serve our offset at all). At a fresh segment boundary the
// previous (sealed) segment is compared instead — there is nothing of
// the current one to disagree about yet. The comparison is bounded by
// one segment; histories that diverge only below the latest segment
// boundary while agreeing byte-for-byte above it are indistinguishable
// here and are treated as equal — acceptable, because WAL frames are
// CRC-framed copies of the leader's bytes: agreeing on a whole trailing
// segment while differing earlier requires identical re-written bytes at
// identical offsets.
func (f *Follower) verifyPrefix(ctx context.Context, tip relstore.ShipPosition) bool {
	seq, end := f.db.FollowerPosition()
	if end == 0 {
		seq--
		if seq < 1 || seq <= tip.SnapshotSeq {
			return false // nothing the leader can still serve
		}
		fi, err := os.Stat(f.db.SegmentPath(seq))
		if err != nil || fi.Size() == 0 {
			return false
		}
		end = fi.Size()
	}
	local, err := os.ReadFile(f.db.SegmentPath(seq))
	if err != nil || int64(len(local)) < end {
		return false
	}
	for cursor := int64(0); cursor < end; {
		chunk, err := f.client.TailWAL(ctx, seq, cursor, 0)
		if err != nil || len(chunk.Data) == 0 {
			// Errors, 410 (compacted or divergent) and empty polls (the
			// leader's durable position is behind ours — divergence) all
			// mean the prefix cannot be confirmed.
			return false
		}
		if chunk.Gen.Known() && (chunk.Gen.StoreID != tip.StoreID || chunk.Gen.Epoch != tip.Epoch) {
			return false // the leader restarted again mid-verification
		}
		n := min(int64(len(chunk.Data)), end-cursor)
		if !bytes.Equal(chunk.Data[:n], local[cursor:cursor+n]) {
			return false
		}
		cursor += n
	}
	return true
}

// noteCleanRound records a healthy tail round: clears the surfaced
// error, resets the reconnect backoff, and — when the applied position
// has provably reached the leader's durable tip — restarts the
// staleness clock.
func (f *Follower) noteCleanRound() {
	f.progress.Store(true)
	aseq, aoff := f.db.FollowerAppliedPosition()
	f.mu.Lock()
	f.lastErr = nil
	if f.tipKnown && (aseq > f.leaderTip.WALSeq || (aseq == f.leaderTip.WALSeq && aoff >= f.leaderTip.Durable)) {
		f.caughtUpAt = time.Now()
	}
	f.mu.Unlock()
}

func (f *Follower) setTip(tip relstore.ShipPosition) {
	f.mu.Lock()
	f.leaderTip = tip
	f.tipKnown = true
	f.mu.Unlock()
}

// observeTip refreshes the leader-tip estimate from a tail response, so
// Status keeps reporting real lag during steady tailing (the status
// round-trip only happens when replication (re)starts). A sealed
// response proves the leader is at least on the next segment; an active
// one names its durable end exactly.
func (f *Follower) observeTip(seq int64, chunk WALChunk) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if chunk.Sealed {
		if seq+1 > f.leaderTip.WALSeq {
			f.leaderTip.WALSeq = seq + 1
			f.leaderTip.Durable = 0
		}
		return
	}
	if seq > f.leaderTip.WALSeq || (seq == f.leaderTip.WALSeq && chunk.End > f.leaderTip.Durable) {
		f.leaderTip.WALSeq = seq
		f.leaderTip.Durable = chunk.End
	}
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// WaitCaughtUp blocks until the replica's applied position reaches the
// leader's durable tip as of this call — the convergence barrier tests,
// benches and orderly role switches use. It asks the leader once and
// then parks on the replica's applied-position channel, so it returns
// when the position is reached, not a poll later. It waits on the
// applied position, not the locally durable one: shipped bytes are
// durable before they are applied, and a barrier that returned in that
// window would let the caller read state older than the tip it was
// promised. It returns ctx's error, or the store's once it is closed.
func (f *Follower) WaitCaughtUp(ctx context.Context) error {
	for {
		tip, err := f.client.Status(ctx)
		if err == nil {
			return f.db.WaitFollowerApplied(ctx, tip.WALSeq, tip.Durable)
		}
		// The leader is unreachable or restarting: ask again shortly.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// countFrames reports how many whole WAL frames b holds. Every commit is
// one frame, so over the prefix FollowerApply consumed this is the
// number of commits it applied.
func countFrames(b []byte) (n int64) {
	for len(b) >= relstore.FrameHeaderSize {
		size := relstore.FrameSize(b)
		if size > int64(len(b)) {
			break
		}
		b = b[size:]
		n++
	}
	return n
}

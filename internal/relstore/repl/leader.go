// Package repl implements WAL-shipping replication for relstore: a
// leader exposes its immutable sealed segments, its active segment's
// durable tail (long-poll) and its latest snapshot over HTTP; followers
// bootstrap from the snapshot, replay the sealed segments with the
// ordinary recovery reader and then tail the active segment, applying
// frames only once they are durable on the leader. All writes stay on
// the leader; followers serve the read path.
//
// The protocol leans entirely on invariants PR 3 established: sealed
// segments never change (so they are plain file serving), the snapshot
// names the segment boundary it covers (so a follower knows exactly
// which segment to fetch next), and only durably committed bytes are
// shipped (so a follower can never observe state the leader could lose
// in a crash — assuming the leader runs with SyncEveryCommit, the
// default). Every shipped frame is CRC-framed; a follower validates
// each frame before applying it and re-requests from its last durable
// offset after any truncation or corruption, so an arbitrarily
// misbehaving transport can delay replication but never corrupt a
// replica.
//
// # Self-clocked shipping
//
// Shipping has no timer of its own. A tail request that finds the
// follower at the tip parks on the store's durable-progress channel and
// serves [from, Durable) the moment it is woken, so an acknowledged
// commit reaches a caught-up follower one request cycle later. Bursts
// batch through two mechanisms that exist anyway: group commit (one
// durable advance covers a whole fsync batch) and the follower's own
// cycle — it asks again only after FollowerApply returns, so whatever
// became durable while it fetched, fsynced and applied chunk N is chunk
// N+1. The busier the leader, the larger the chunks; an idle pair pays
// one round trip per commit and nothing else. The follower's
// chronos_repl_chunks_total and chronos_repl_commits_applied_total
// counters show the resulting commits per chunk.
//
// Consistency contract (mechanically checked by this package's tests,
// in the spirit of online transactional isolation checking): every
// commit acknowledged on the leader becomes visible on every follower
// in commit order — a follower's state always equals a prefix of the
// leader's history, with no lost and no invented commits, across
// follower restarts and across leader compactions that force a snapshot
// re-bootstrap.
//
// # Generations and session tokens
//
// Positions are only comparable within one store generation — the
// persistent (id, epoch) pair relstore mints per leader open (see
// relstore's generation.go). Every ship response carries the serving
// leader's generation (in the status body and the X-Chronos-Gen header
// on snapshot and WAL responses), and a follower tracks the generation
// its state was last verified against. When the leader's epoch moves —
// any leader restart — the follower byte-compares its local WAL tail
// with the leader's before adopting the new epoch; a mismatch (a leader
// restored from diverged history) forces a snapshot re-bootstrap
// instead. Session tokens (internal/rest's X-Chronos-Commit-Position /
// X-Chronos-Read-After headers) embed the generation, so a token minted
// by a pre-restart leader is never silently "satisfied" by a follower
// whose state comes from a different history: the follower refuses it
// (412, the client's cue to fall back to the leader) rather than serve
// a position that means nothing in its own history.
//
// The network-fault session harness in internal/faultnet drives this
// whole stack — writers through the leader, token-carrying readers
// through followers, both through a fault-injecting TCP proxy, across
// follower restarts, leader restarts and forced re-bootstraps — and
// asserts that read-your-writes and monotonic reads hold throughout.
package repl

import (
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"chronos/internal/api"
	"chronos/internal/httputil"
	"chronos/internal/relstore"
)

// Protocol headers. The WAL endpoint serves raw frame bytes; metadata
// travels in headers so the body stays a verbatim segment slice.
const (
	// HeaderSealed is "1" when the served segment is sealed: once the
	// follower has consumed the response it should advance to the next
	// segment.
	HeaderSealed = "X-Chronos-Wal-Sealed"
	// HeaderEnd is the byte offset this response runs to — for a sealed
	// segment, its total size. A follower advances to the next segment
	// only once its durable position reaches a sealed segment's end, so
	// a truncated response body can never make it skip frames.
	HeaderEnd = "X-Chronos-Wal-End"
	// HeaderReplToken carries the dedicated replication credential.
	// Deliberately not the agent token: shipping exposes the whole
	// store, which the job-execution endpoints never do. The literal
	// lives in the api package so pkg/client can reach it.
	HeaderReplToken = api.HeaderReplToken
	// HeaderGen carries the serving store's generation as "id:epoch" on
	// snapshot and WAL responses, so a follower notices a leader restart
	// (epoch move) on the very chunk it arrives with — even when the
	// restart was fast enough that no transport error betrayed it — and
	// re-verifies its history before applying anything further.
	HeaderGen = "X-Chronos-Gen"
)

// DefaultMaxWait caps how long a WAL tail request may long-poll before
// returning 204 No Content.
const DefaultMaxWait = 25 * time.Second

// DefaultMaxChunkBytes caps one WAL response's byte range, bounding the
// follower's per-chunk buffering (it reads each response fully before
// applying) regardless of how large segments are configured. The
// protocol is range-based, so a capped response simply makes the
// follower come back for the rest.
const DefaultMaxChunkBytes = 4 << 20

// Handler serves the leader side of the ship protocol. It is mounted by
// internal/rest under /api/{v}/repl/ behind the replication-token /
// admin-session gate; the methods themselves carry no auth.
type Handler struct {
	db *relstore.DB
	// MaxWait caps the long-poll duration (DefaultMaxWait when zero).
	MaxWait time.Duration
	// MaxChunkBytes overrides the per-response range cap
	// (DefaultMaxChunkBytes when zero).
	MaxChunkBytes int64
}

// NewHandler builds the ship handler over a store.
func NewHandler(db *relstore.DB) *Handler { return &Handler{db: db} }

// Status responds with the leader's current ship position as JSON.
func (h *Handler) Status(w http.ResponseWriter, r *http.Request) {
	pos, _, err := h.db.ShipPosition()
	if err != nil {
		httputil.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	httputil.WriteJSON(w, http.StatusOK, pos)
}

// Snapshot streams the leader's latest durable snapshot file. 404 means
// the leader has never compacted: the follower starts empty at segment 1
// — every segment since birth is still live.
func (h *Handler) Snapshot(w http.ResponseWriter, r *http.Request) {
	h.setGenHeader(w)
	f, err := os.Open(h.db.SnapshotFilePath())
	if err != nil {
		if os.IsNotExist(err) {
			httputil.WriteError(w, http.StatusNotFound, errors.New("repl: leader has no snapshot yet"))
			return
		}
		httputil.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	// The snapshot is replaced atomically by rename; this open
	// descriptor keeps serving one consistent version even if compaction
	// installs a newer one mid-stream.
	w.Header().Set("Content-Type", "application/octet-stream")
	if fi, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	}
	io.Copy(w, f)
}

// WAL serves raw frame bytes of segment {seq} starting at query
// parameter from. Sealed segments are served to EOF with HeaderSealed
// set; the active segment is served up to the durable boundary,
// long-polling (query parameter wait, in milliseconds, capped by
// MaxWait) when the follower is already at the tip and answering as soon
// as the durable boundary moves. 410 Gone means the segment — or the
// requested offset — is no longer shippable and the follower must
// re-bootstrap from the snapshot.
func (h *Handler) WAL(w http.ResponseWriter, r *http.Request) {
	h.setGenHeader(w)
	seq, err := strconv.ParseInt(r.PathValue("seq"), 10, 64)
	if err != nil || seq <= 0 {
		httputil.WriteError(w, http.StatusBadRequest, errors.New("repl: bad segment number"))
		return
	}
	from, err := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from < 0 {
		httputil.WriteError(w, http.StatusBadRequest, errors.New("repl: bad from offset"))
		return
	}
	maxWait := h.MaxWait
	if maxWait <= 0 {
		maxWait = DefaultMaxWait
	}
	wait := time.Duration(0)
	if ms, err := strconv.ParseInt(r.URL.Query().Get("wait"), 10, 64); err == nil && ms > 0 {
		wait = min(time.Duration(ms)*time.Millisecond, maxWait)
	}
	deadline := time.Now().Add(wait)

	for {
		pos, notify, err := h.db.ShipPosition()
		if err != nil {
			httputil.WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		if seq <= pos.SnapshotSeq {
			h.gone(w)
			return
		}
		if seq > pos.WALSeq {
			// The follower is ahead of the leader's history (a leader
			// restored from older data, say). An honest follower can
			// never get here — a segment is reported sealed only when
			// WALSeq is already past it — so only a re-bootstrap
			// reconverges.
			h.gone(w)
			return
		}
		sealed := seq < pos.WALSeq
		end := pos.Durable
		if sealed {
			fi, err := os.Stat(h.db.SegmentPath(seq))
			if err != nil {
				if os.IsNotExist(err) {
					// Compacted away between the position read and here.
					h.gone(w)
					return
				}
				httputil.WriteError(w, http.StatusInternalServerError, err)
				return
			}
			end = fi.Size()
		}
		if from > end {
			// Follower claims bytes the leader never durably wrote:
			// divergent history.
			h.gone(w)
			return
		}
		if from < end || sealed {
			h.serveRange(w, seq, from, end, sealed)
			return
		}
		// Caught up on the active segment: long-poll for progress.
		remaining := time.Until(deadline)
		if remaining <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		t := time.NewTimer(remaining)
		select {
		case <-notify:
			// Fresh durable bytes (or a rotation): the next turn re-reads
			// the position and serves [from, Durable) at once.
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		}
		t.Stop()
	}
}

// setGenHeader stamps the serving store's generation on the response.
// Called before anything is written; a store without a known generation
// (never, for a leader) just omits the header.
func (h *Handler) setGenHeader(w http.ResponseWriter) {
	if id, epoch, ok := h.db.Generation(); ok {
		w.Header().Set(HeaderGen, Gen{StoreID: id, Epoch: epoch}.String())
	}
}

// gone rejects the request with 410, telling the follower to
// re-bootstrap from the snapshot endpoint.
func (h *Handler) gone(w http.ResponseWriter) {
	httputil.WriteError(w, http.StatusGone, errors.New("repl: segment no longer shippable; bootstrap from the snapshot"))
}

// serveRange streams segment bytes [from, end) with the protocol
// headers, capping the range at MaxChunkBytes — but never below one
// whole frame, or a frame larger than the cap could never be delivered
// and the follower would re-request the same offset forever. A capped
// response clears the sealed flag so the follower never advances past
// bytes it has not received; a sealed segment at from == end yields an
// empty 200 whose sealed header still tells the follower to advance.
func (h *Handler) serveRange(w http.ResponseWriter, seq, from, end int64, sealed bool) {
	f, err := os.Open(h.db.SegmentPath(seq))
	if err != nil {
		if os.IsNotExist(err) {
			h.gone(w)
			return
		}
		httputil.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	maxChunk := h.MaxChunkBytes
	if maxChunk <= 0 {
		maxChunk = DefaultMaxChunkBytes
	}
	if end-from > maxChunk {
		trueEnd := end
		end = from + maxChunk
		// The first frame's header names its length; extend a too-tight
		// cap to that frame's boundary so every response carries at
		// least one complete frame.
		var hdr [relstore.FrameHeaderSize]byte
		if _, err := f.ReadAt(hdr[:], from); err == nil {
			if fe := from + relstore.FrameSize(hdr[:]); fe > end && fe <= trueEnd {
				end = fe
			}
		}
		if end < trueEnd {
			sealed = false
		}
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		httputil.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(end-from, 10))
	w.Header().Set(HeaderEnd, strconv.FormatInt(end, 10))
	if sealed {
		w.Header().Set(HeaderSealed, "1")
	}
	w.WriteHeader(http.StatusOK)
	io.CopyN(w, f, end-from)
}

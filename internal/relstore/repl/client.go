package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"chronos/internal/httputil"
	"chronos/internal/relstore"
)

// Sentinel errors the ship client maps HTTP statuses onto.
var (
	// ErrSegmentGone means the leader compacted the requested segment
	// (or the requested offset diverges from its history): the follower
	// must re-bootstrap from the snapshot.
	ErrSegmentGone = errors.New("repl: segment no longer shippable on the leader")
	// ErrNoSnapshot means the leader has never compacted; a
	// bootstrapping follower starts empty at segment 1.
	ErrNoSnapshot = errors.New("repl: leader has no snapshot")
	// errNoGeneration refuses a ship response that names no store
	// generation: its positions belong to no history the follower could
	// verify, so not one of its bytes may be applied. Every leader of
	// this build names one; a chained follower names none while it
	// re-bootstraps, and the replicas behind it wait that out.
	errNoGeneration = errors.New("repl: leader response names no store generation")
)

// Client speaks the ship protocol against a leader's REST endpoint.
type Client struct {
	base string // leader base URL, e.g. http://leader:8080
	// replToken authenticates via the dedicated replication token, the
	// follower credential. (The leader's ship gate also accepts an
	// admin session, but that path serves operators with curl, not this
	// client.)
	replToken string
	// hc has no overall timeout: WAL tails long-poll. Liveness comes
	// from the per-request wait budget the server honours.
	hc *http.Client
}

// NewClient builds a ship client for the leader at base.
func NewClient(base, replToken string) *Client {
	return &Client{base: base, replToken: replToken, hc: &http.Client{}}
}

func (c *Client) url(suffix string) string {
	return c.base + "/api/v2/repl/" + suffix
}

// responseGen reads the generation a ship response names in HeaderGen;
// a response without one is refused.
func responseGen(resp *http.Response) (relstore.Generation, error) {
	v := resp.Header.Get(HeaderGen)
	gen, err := relstore.ParseGeneration(v)
	if err != nil {
		return gen, fmt.Errorf("%w: %s %q", errNoGeneration, HeaderGen, v)
	}
	return gen, nil
}

func (c *Client) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if c.replToken != "" {
		req.Header.Set(HeaderReplToken, c.replToken)
	}
	return c.hc.Do(req)
}

// Status fetches the leader's current ship position.
func (c *Client) Status(ctx context.Context) (relstore.ShipPosition, error) {
	var pos relstore.ShipPosition
	resp, err := c.get(ctx, c.url("status"))
	if err != nil {
		return pos, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return pos, err
	}
	if resp.StatusCode != http.StatusOK {
		return pos, fmt.Errorf("repl: leader status: HTTP %d: %s", resp.StatusCode, body)
	}
	if err := httputil.ReadEnvelope(body, &pos); err != nil {
		return pos, err
	}
	if pos.Generation == (relstore.Generation{}) {
		return pos, errNoGeneration
	}
	return pos, nil
}

// Snapshot opens a stream of the leader's latest snapshot, along with
// the generation of the store it came from. The caller must Close the
// stream. ErrNoSnapshot means the leader has never compacted — the
// returned generation is still meaningful then (an empty replica is a
// trivial prefix of that history).
func (c *Client) Snapshot(ctx context.Context) (io.ReadCloser, relstore.Generation, error) {
	resp, err := c.get(ctx, c.url("snapshot"))
	if err != nil {
		return nil, relstore.Generation{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		resp.Body.Close()
		return nil, relstore.Generation{}, fmt.Errorf("repl: leader snapshot: HTTP %d", resp.StatusCode)
	}
	gen, err := responseGen(resp)
	if err != nil {
		resp.Body.Close()
		return nil, gen, err
	}
	if resp.StatusCode == http.StatusNotFound {
		resp.Body.Close()
		return nil, gen, ErrNoSnapshot
	}
	return resp.Body, gen, nil
}

// WALChunk is one TailWAL response: raw frame bytes starting at the
// requested offset, plus where the served range ends and whether the
// segment is sealed. A follower advances to the next segment only when
// the segment is sealed AND its durable position has reached End — never
// on the body length alone, which a truncating transport could shorten.
type WALChunk struct {
	Data   []byte
	End    int64 // offset the served range runs to (sealed: segment size)
	Sealed bool
	// Gen is the generation of the store that served the chunk. A
	// follower that sees it move away from the generation its state is
	// verified against stops applying and re-verifies first.
	Gen relstore.Generation
}

// TailWAL fetches raw frame bytes of segment seq starting at offset
// from, long-polling up to wait when the follower is at the leader's
// tip. A chunk with no data that is not sealed means the wait budget
// expired with no progress — simply call again.
func (c *Client) TailWAL(ctx context.Context, seq, from int64, wait time.Duration) (WALChunk, error) {
	url := c.url("wal/" + strconv.FormatInt(seq, 10) +
		"?from=" + strconv.FormatInt(from, 10) +
		"&wait=" + strconv.FormatInt(wait.Milliseconds(), 10))
	resp, err := c.get(ctx, url)
	if err != nil {
		return WALChunk{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		gen, err := responseGen(resp)
		if err != nil {
			return WALChunk{}, err
		}
		if resp.StatusCode == http.StatusNoContent {
			return WALChunk{Gen: gen}, nil
		}
		chunk := WALChunk{Sealed: resp.Header.Get(HeaderSealed) == "1", Gen: gen}
		chunk.End, err = strconv.ParseInt(resp.Header.Get(HeaderEnd), 10, 64)
		if err != nil {
			return WALChunk{}, fmt.Errorf("repl: leader wal: bad %s header", HeaderEnd)
		}
		// A truncated read still returns the prefix: the follower
		// applies whole frames from it and re-requests the rest, so a
		// flaky transport degrades to smaller chunks, never to damage.
		chunk.Data, err = io.ReadAll(resp.Body)
		if err != nil && len(chunk.Data) == 0 {
			return WALChunk{}, err
		}
		return chunk, nil
	case http.StatusGone:
		return WALChunk{}, ErrSegmentGone
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return WALChunk{}, fmt.Errorf("repl: leader wal: HTTP %d: %s", resp.StatusCode, body)
	}
}

package httputil

// Trace ids. A request id minted in pkg/client rides the X-Chronos-Trace
// header to the server, where the access middleware echoes it on the
// response and stamps it on every log line for the request, so a slow
// operation in a server's log can be matched to the client attempt that
// caused it.

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"strings"
	"sync/atomic"
)

// HeaderTrace carries the client-minted request id end to end.
const HeaderTrace = "X-Chronos-Trace"

// traceFallback distinguishes minted ids if crypto/rand ever fails.
var traceFallback atomic.Int64

// MintTraceID returns a fresh 16-hex-char request id.
func MintTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "t-" + strconv.FormatInt(traceFallback.Add(1), 36)
	}
	return hex.EncodeToString(b[:])
}

// sanitizeTrace bounds what a caller-supplied trace id may inject into
// logs: printable, no whitespace, at most 64 chars.
func sanitizeTrace(id string) string {
	if len(id) > 64 {
		id = id[:64]
	}
	if strings.ContainsFunc(id, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
		return ""
	}
	return id
}

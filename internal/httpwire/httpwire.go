// Package httpwire holds every HTTP/1.1 rule the serving path applies to
// raw bytes, written once: the worker edge (gateway.Edge) parses request
// heads with it, the dispatcher relay (cluster) parses worker response
// heads with it, and both transports' net/http handlers read request
// bodies through it. Each parser is held to net/http's reading of the
// same bytes by a differential fuzzer in the package that calls it, with
// that caller's header names (gateway's FuzzEdgeRequestHead, cluster's
// FuzzRelayResponseHead). Nothing here allocates on the steady path.
package httpwire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
)

// tokenByte marks the RFC 9110 tchar set: method and header-name bytes.
var tokenByte = func() (t [256]bool) {
	for _, c := range []byte("!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		t[c] = true
	}
	return t
}()

// IsToken reports whether b is a non-empty RFC 9110 token.
func IsToken[S ~string | ~[]byte](b S) bool {
	for i := 0; i < len(b); i++ {
		if !tokenByte[b[i]] {
			return false
		}
	}
	return len(b) > 0
}

// fold is an ASCII-only case-insensitive comparison: unlike
// bytes.EqualFold it never matches a non-ASCII byte (no "ſ" for "s"), as
// net/http's token comparisons do not.
func fold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if l := c | 0x20; c != s[i] && (l != s[i]|0x20 || l < 'a' || l > 'z') {
			return false
		}
	}
	return true
}

// listHasToken reports whether a comma-separated header value lists token
// (httpguts.HeaderValuesContainsToken, which net/http reads Connection
// with).
func listHasToken(v []byte, token string) bool {
	for {
		elem, rest, more := bytes.Cut(v, []byte{','})
		if fold(trimOWS(elem), token) {
			return true
		}
		if !more {
			return false
		}
		v = rest
	}
}

// trimOWS strips optional whitespace (spaces/tabs) from both ends.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for n := len(b); n > 0 && (b[n-1] == ' ' || b[n-1] == '\t'); n = len(b) {
		b = b[:n-1]
	}
	return b
}

// parseDecimal parses a non-negative decimal without allocating. Inputs
// longer than 18 digits are rejected outright: 18 digits always fit int64,
// while longer strings could wrap the n*10+digit accumulator past the sign
// bit and back to a small positive value — a Content-Length alias that
// would misframe the body (checking n < 0 alone misses the double-wrap
// case).
func parseDecimal(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// cutLine splits buf at its first newline, dropping the LF or CRLF ending.
func cutLine(buf []byte) (line, rest []byte, ok bool) {
	if line, rest, ok = bytes.Cut(buf, []byte{'\n'}); !ok {
		return nil, buf, false
	}
	return bytes.TrimSuffix(line, []byte{'\r'}), rest, true
}

// field splits a header line into a token name and its OWS-trimmed value,
// reporting whether the line is well formed: a colon, a token before it
// (so obs-fold and whitespace before the colon fail), and no control byte
// but tab in the value.
func field(line []byte) (name, val []byte, ok bool) {
	name, val, ok = bytes.Cut(line, []byte{':'})
	if !ok || !IsToken(name) {
		return nil, nil, false
	}
	val = trimOWS(val)
	for _, c := range val {
		if c < ' ' && c != '\t' || c == 0x7f {
			return nil, nil, false
		}
	}
	return name, val, true
}

// Writev is a reusable two-buffer gathered write. WriteTo CONSUMES a
// net.Buffers, so the pair is rebuilt each write from a fixed backing
// array; appending to the consumed slice would reallocate it every time.
type Writev struct {
	nb  net.Buffers
	arr [2][]byte
}

// Write sends head and body to c in one gathered write.
func (w *Writev) Write(c net.Conn, head, body []byte) error {
	w.arr[0], w.arr[1] = head, body
	w.nb = w.arr[:]
	_, err := w.nb.WriteTo(c)
	w.arr[0], w.arr[1] = nil, nil
	return err
}

// bodyPool recycles body buffers. A request body becomes the invocation's
// ArgBuf payload (worker) or the re-sendable copy behind re-placement
// (dispatcher) zero-copy, so it returns to the pool only once nothing
// reads it any more.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// GetBody returns a pooled buffer with capacity for n bytes.
func GetBody(n int64) *[]byte {
	bp := bodyPool.Get().(*[]byte)
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	return bp
}

// PutBody recycles a GetBody or ReadBody buffer; nil is a no-op.
func PutBody(bp *[]byte) {
	if bp != nil {
		bodyPool.Put(bp)
	}
}

// ErrTooLarge is ReadBody's refusal of a body over its limit.
var ErrTooLarge = errors.New("httpwire: body over the limit")

// ReadBody reads a body into a pooled buffer: exactly n bytes when n >= 0
// (a declared Content-Length), else everything up to EOF (chunked), the
// buffer doubling as it fills. A body over limit is ErrTooLarge — a
// declared one before a byte is read, a chunked one after at most
// limit+1. On success the caller owns bp and hands it to PutBody once
// nothing reads body; on error there is nothing to return.
func ReadBody(r io.Reader, n, limit int64) (body []byte, bp *[]byte, err error) {
	if n > limit {
		return nil, nil, ErrTooLarge
	}
	if n >= 0 {
		bp = GetBody(n)
		body = (*bp)[:n]
		_, err = io.ReadFull(r, body)
	} else {
		bp = GetBody(0)
		body = (*bp)[:0]
		lr := io.LimitedReader{R: r, N: limit + 1}
		for err == nil {
			if len(body) == cap(body) {
				body = slices.Grow(body, len(body)+1)
				*bp = body
			}
			var m int
			m, err = lr.Read(body[len(body):cap(body)])
			body = body[:len(body)+m]
		}
		if err == io.EOF {
			err = nil
		}
		if err == nil && int64(len(body)) > limit {
			err = ErrTooLarge
		}
	}
	if err != nil {
		PutBody(bp)
		return nil, nil, err
	}
	return body, bp, nil
}

package httpwire

import (
	"bufio"
	"bytes"
	"net/http"
)

// RequestHead is one parsed request head. Method, Path and Key are copied
// into the head's own scratch: the read buffer they came from is
// invalidated by the next ReadSlice.
type RequestHead struct {
	Method, Path, Key []byte
	HTTP11            bool  // HTTP/1.1 (or a later 1.x): keep-alive by default
	ContentLength     int64 // -1 = absent
	Close             bool  // a Connection header lists "close"
	ExpectContinue    bool
	Chunked           bool // Transfer-Encoding present: never framed, always refused

	sawHost, sawKey bool
}

// ParseRequestHead parses a request head — the request line (read by the
// caller, which may mark its connection busy in between) and the header
// block from br — leaving br at the body; keyHeader names the header whose
// first value lands in Key. It is as strict as http.ReadRequest: whatever
// it accepts, ReadRequest accepts with the same method, target, framing,
// Connection and Expect verdicts and key (held to that by
// FuzzEdgeRequestHead). Where the RFCs let a server refuse, it is
// stricter: obs-fold, whitespace before a colon, a repeated
// Content-Length, a target that is not an absolute path, an expectation
// other than 100-continue, and versions other than HTTP/1.x are refused.
// status != 0 is the refusal to send before closing; err is a read error,
// after which no response is possible.
func ParseRequestHead(line []byte, br *bufio.Reader, h *RequestHead, keyHeader string) (status int, err error) {
	*h = RequestHead{Method: h.Method[:0], Path: h.Path[:0], Key: h.Key[:0], ContentLength: -1}
	line, _, _ = cutLine(line)
	method, rest, ok1 := bytes.Cut(line, []byte{' '})
	target, proto, ok2 := bytes.Cut(rest, []byte{' '})
	if !ok1 || !ok2 || !IsToken(method) || !originForm(target) {
		return http.StatusBadRequest, nil
	}
	if len(proto) != 8 || string(proto[:7]) != "HTTP/1." || proto[7] < '0' || proto[7] > '9' {
		return http.StatusHTTPVersionNotSupported, nil
	}
	h.HTTP11 = proto[7] != '0'
	h.Method = append(h.Method, method...)
	h.Path = append(h.Path, target...)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return http.StatusRequestHeaderFieldsTooLarge, nil
		} else if err != nil {
			return 0, err
		}
		if line, _, _ = cutLine(line); len(line) == 0 {
			return 0, nil
		}
		name, val, ok := field(line)
		if !ok {
			return http.StatusBadRequest, nil
		}
		switch {
		case fold(name, "Content-Length"):
			if h.ContentLength >= 0 {
				return http.StatusBadRequest, nil
			}
			if h.ContentLength, ok = parseDecimal(val); !ok {
				return http.StatusBadRequest, nil
			}
		case fold(name, "Transfer-Encoding"):
			h.Chunked = true
		case fold(name, "Connection"):
			h.Close = h.Close || listHasToken(val, "close")
		case fold(name, "Host"):
			if h.sawHost {
				return http.StatusBadRequest, nil
			}
			h.sawHost = true
		case fold(name, "Expect"):
			if !fold(val, "100-continue") {
				return http.StatusExpectationFailed, nil
			}
			h.ExpectContinue = true
		case fold(name, keyHeader):
			if !h.sawKey { // the first counts, as Header.Get reads it
				h.sawKey, h.Key = true, append(h.Key, val...)
			}
		}
	}
}

// originForm reports whether a request target is an absolute path (and
// query) url.ParseRequestURI accepts: no control bytes, and every %-escape
// in the path well formed.
func originForm(t []byte) bool {
	if len(t) == 0 || t[0] != '/' {
		return false
	}
	for _, c := range t {
		if c < ' ' || c == 0x7f {
			return false
		}
	}
	path, _, _ := bytes.Cut(t, []byte{'?'})
	for i, c := range path {
		if c == '%' && (i+2 >= len(path) || !isHex(path[i+1]) || !isHex(path[i+2])) {
			return false
		}
	}
	return true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

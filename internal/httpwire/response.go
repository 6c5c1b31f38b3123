package httpwire

import "net/http"

// ResponseHead is what a relay reads off a response head.
type ResponseHead struct {
	Status        int
	ContentLength int64 // -1 = absent
	Close         bool  // a Connection header lists "close"
}

// Verdict is ParseResponseHead's reading of a buffer.
type Verdict int

const (
	HeadMore Verdict = iota // no blank line yet
	HeadFast                // framed by one Content-Length: read the body in place
	HeadSlow                // anything else: http.ReadResponse decides
)

// ParseResponseHead parses a response head at the start of buf without
// copying; vals[i] is set to the first value of header names[i] (aliasing
// buf; nil = absent). It says HeadFast only for the plain shape the
// workers' edge writes — HTTP/1.1, a status that carries a body, exactly
// one well-formed Content-Length, no Transfer-Encoding, no folded or
// malformed lines — and then n is the head's length. Everything it is not
// sure of is HeadSlow, so that accepting or rejecting odd input stays
// net/http's decision; FuzzRelayResponseHead holds the two to the same
// reading.
func ParseResponseHead(buf []byte, h *ResponseHead, names []string, vals [][]byte) (n int, v Verdict) {
	*h = ResponseHead{ContentLength: -1}
	clear(vals)
	line, rest, ok := cutLine(buf)
	if !ok {
		return 0, HeadMore
	}
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || len(line) > 12 && line[12] != ' ' {
		return 0, HeadSlow
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return 0, HeadSlow
		}
		h.Status = h.Status*10 + int(c-'0')
	}
	if h.Status < 200 || h.Status == http.StatusNoContent || h.Status == http.StatusNotModified {
		return 0, HeadSlow
	}
	for {
		if line, rest, ok = cutLine(rest); !ok {
			return 0, HeadMore
		}
		if len(line) == 0 {
			break
		}
		name, val, ok := field(line)
		if !ok {
			return 0, HeadSlow
		}
		switch {
		case fold(name, "Content-Length"):
			if h.ContentLength >= 0 {
				return 0, HeadSlow // a second Content-Length
			}
			if h.ContentLength, ok = parseDecimal(val); !ok {
				return 0, HeadSlow
			}
		case fold(name, "Transfer-Encoding"):
			return 0, HeadSlow
		case fold(name, "Connection"):
			h.Close = h.Close || listHasToken(val, "close")
		default:
			// Of a repeated header the first value counts, as
			// http.Header.Get reads it.
			for i, want := range names {
				if vals[i] == nil && fold(name, want) {
					vals[i] = val
				}
			}
		}
	}
	if h.ContentLength < 0 {
		return 0, HeadSlow
	}
	return len(buf) - len(rest), HeadFast
}

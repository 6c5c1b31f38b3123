package gateway

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"jord/internal/httpwire"
)

// edgeHeadBuf is the edge's read-buffer size: a longer line is refused
// (414/431) rather than parsed.
const edgeHeadBuf = 16 << 10

// readEdgeHead reads one request head the way serveOne does and reports
// the parser's verdict and how many input bytes the head consumed.
func readEdgeHead(data []byte, h *httpwire.RequestHead) (status int, err error, consumed int) {
	src := bytes.NewReader(data)
	br := bufio.NewReaderSize(src, edgeHeadBuf)
	line, err := br.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull:
		status, err = http.StatusRequestURITooLong, nil
	case err == nil:
		status, err = httpwire.ParseRequestHead(line, br, h, IdempotencyKeyHeader)
	}
	return status, err, len(data) - src.Len() - br.Buffered()
}

// checkReqHeadAgainstNetHTTP holds httpwire.ParseRequestHead, reading the
// edge's key header, to http.ReadRequest's reading of the same bytes. If
// the edge accepts a head, net/http must accept it with the same method,
// request target, protocol, Content-Length framing, Connection: close
// verdict, Expect and idempotency key, and the next request must start at
// the same byte. If the edge refuses a
// head net/http accepts, the head must fall in one of the classes the
// edge refuses on purpose (conservativeRefusal). It returns whether the
// edge frames the request.
func checkReqHeadAgainstNetHTTP(t *testing.T, data []byte) bool {
	t.Helper()
	var h httpwire.RequestHead
	status, err, headLen := readEdgeHead(data, &h)
	refSrc := bytes.NewReader(data)
	refBr := bufio.NewReader(refSrc)
	ref, refErr := http.ReadRequest(refBr)

	// A Transfer-Encoding head parses, but the edge refuses it (411) and
	// closes: it is never framed.
	if status != 0 || err != nil || h.Chunked {
		if refErr == nil {
			if conservativeRefusal(data, ref) == "" {
				t.Fatalf("edge refused (status %d, err %v) a head net/http accepts:\n%q", status, err, data)
			}
		}
		return false
	}
	if refErr != nil {
		t.Fatalf("edge accepted a head net/http rejects (%v):\n%q", refErr, data)
	}
	if ref.Method != string(h.Method) || ref.RequestURI != string(h.Path) ||
		ref.ProtoMajor != 1 || (ref.ProtoMinor >= 1) != h.HTTP11 {
		t.Fatalf("request line: edge %q %q http11=%v; net/http %q %q %s\n%q",
			h.Method, h.Path, h.HTTP11, ref.Method, ref.RequestURI, ref.Proto, data)
	}
	if h.HTTP11 && ref.Close != h.Close {
		t.Fatalf("Connection close: edge %v, net/http %v\n%q", h.Close, ref.Close, data)
	}
	if want := ref.Header.Get("Expect") != ""; want != h.ExpectContinue {
		t.Fatalf("Expect 100-continue: edge %v, net/http %q\n%q", h.ExpectContinue, ref.Header.Get("Expect"), data)
	}
	if want := ref.Header.Get(IdempotencyKeyHeader); want != string(h.Key) {
		t.Fatalf("idempotency key: edge %q, net/http %q\n%q", h.Key, want, data)
	}
	if want := max(h.ContentLength, 0); ref.ContentLength != want || ref.TransferEncoding != nil {
		t.Fatalf("framing: edge Content-Length %d, net/http %d (te %v)\n%q", h.ContentLength, ref.ContentLength, ref.TransferEncoding, data)
	}
	// The next request starts where the declared body ends, for both.
	_, _ = io.Copy(io.Discard, ref.Body)
	refNext := len(data) - refSrc.Len() - refBr.Buffered()
	if next := min(headLen+int(max(h.ContentLength, 0)), len(data)); next != refNext {
		t.Fatalf("next request at byte %d for the edge, %d for net/http\n%q", next, refNext, data)
	}
	return true
}

// conservativeRefusal names why the edge may refuse a head net/http
// accepts — each a refusal RFC 9112 permits — or returns "".
func conservativeRefusal(data []byte, ref *http.Request) string {
	switch {
	case ref.ProtoMajor != 1:
		return "HTTP version other than 1.x"
	case !strings.HasPrefix(ref.RequestURI, "/"):
		return "request target not an absolute path"
	}
	br := bufio.NewReader(bytes.NewReader(data))
	contentLengths := 0
	for first := true; ; first = false {
		line, err := br.ReadString('\n')
		if len(line) > edgeHeadBuf {
			return "line longer than the edge's buffer"
		}
		line = strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")
		if err != nil || line == "" {
			break
		}
		if first {
			continue
		}
		name, val, _ := strings.Cut(line, ":")
		switch {
		case line[0] == ' ' || line[0] == '\t':
			return "obs-fold"
		case strings.ContainsAny(name, " \t"):
			return "whitespace before the colon"
		case strings.EqualFold(name, "Expect") && !strings.EqualFold(strings.Trim(val, " \t"), "100-continue"):
			return "an expectation other than 100-continue (417)"
		case strings.EqualFold(name, "Transfer-Encoding"):
			return "Transfer-Encoding (the edge frames by Content-Length only)"
		case strings.EqualFold(name, "Content-Length"):
			if contentLengths++; contentLengths > 1 {
				return "repeated Content-Length"
			}
			if len(strings.Trim(val, " \t")) > 18 {
				return "Content-Length longer than 18 digits"
			}
		}
	}
	return ""
}

// reqHeadCases seed the fuzz corpus: the framing cases of the TestEdge*
// suite, the dispatcher's keyed form, and every refusal class.
var reqHeadCases = []struct {
	name   string
	in     string
	framed bool
}{
	{"echo", "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world", true},
	{"keyed", "POST /invoke/echo HTTP/1.1\r\nHost: 127.0.0.1:8034\r\nX-Jord-Idempotency-Key: d-0123456789abcdef-1a\r\nContent-Length: 2\r\n\r\nhi", true},
	{"keyed expect", "POST /invoke/count HTTP/1.1\r\nHost: x\r\nX-Jord-Idempotency-Key: ec\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n", true},
	{"oversized", "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 10485760\r\n\r\n", true},
	{"expect continue", "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\nhello", true},
	{"cold body framing", "POST /statsz HTTP/1.1\r\nHost: x\r\nContent-Length: 17\r\n\r\nGET /x HTTP/1.1\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", true},
	{"connection close", "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", true},
	{"close in a token list", "GET /healthz HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n", true},
	{"expect, any case", "POST /invoke/echo HTTP/1.1\r\nExpect:  100-Continue\r\nContent-Length: 0\r\n\r\n", true},
	{"first key wins", "POST /invoke/echo HTTP/1.1\r\nx-jord-idempotency-key:\r\nX-Jord-Idempotency-Key: b\r\nContent-Length: 0\r\n\r\n", true},
	{"lower-case names, padded values", "POST /invoke/echo HTTP/1.1\r\ncontent-length:  3 \r\nhost:\tx\r\n\r\nabc", true},
	{"bare LF", "POST /invoke/echo HTTP/1.1\nContent-Length: 1\n\nx", true},
	{"no Content-Length", "POST /invoke/echo HTTP/1.1\r\nHost: x\r\n\r\n", true},
	{"HTTP/1.0", "POST /invoke/echo HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 1\r\n\r\nx", true},
	{"query and escapes", "GET /tracez?fn=%zz&n=1 HTTP/1.1\r\n\r\n", true},
	{"truncated body", "POST /invoke/echo HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc", true},

	{"chunked", "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", false},
	{"transfer-encoding on 1.0", "POST /invoke/echo HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 1\r\n\r\nx", false},
	{"unknown transfer-encoding", "POST /invoke/echo HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", false},
	{"Content-Length overflow", "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 92233720368547758080\r\n\r\n", false},
	{"Content-Length alias", "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 184467440737095516165\r\n\r\n", false},
	{"leading zeros", "POST /invoke/echo HTTP/1.1\r\nContent-Length: 0000000000000000001\r\n\r\nx", false},
	{"signed length", "POST /invoke/echo HTTP/1.1\r\nContent-Length: +1\r\n\r\nx", false},
	{"repeated length", "POST /invoke/echo HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx", false},
	{"conflicting lengths", "POST /invoke/echo HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nxy", false},
	{"obs-fold", "POST /invoke/echo HTTP/1.1\r\nX-A: a\r\n b\r\nContent-Length: 0\r\n\r\n", false},
	{"leading space", "POST /invoke/echo HTTP/1.1\r\n Content-Length: 0\r\n\r\n", false},
	{"space before colon", "POST /invoke/echo HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello", false},
	{"no colon", "POST /invoke/echo HTTP/1.1\r\nContent-Length 5\r\n\r\nhello", false},
	{"control byte in value", "POST /invoke/echo HTTP/1.1\r\nX-A: a\x01b\r\nContent-Length: 0\r\n\r\n", false},
	{"expect in a token list", "POST /invoke/echo HTTP/1.1\r\nExpect: foo 100-continue\r\nContent-Length: 0\r\n\r\n", false},
	{"two hosts", "GET /healthz HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", false},
	{"HTTP/2.0", "GET /healthz HTTP/2.0\r\n\r\n", false},
	{"lower-case version", "GET /healthz http/1.1\r\n\r\n", false},
	{"absolute form", "POST http://x/invoke/echo HTTP/1.1\r\nContent-Length: 0\r\n\r\n", false},
	{"asterisk form", "OPTIONS * HTTP/1.1\r\n\r\n", false},
	{"bad escape", "POST /invoke/%zz HTTP/1.1\r\nContent-Length: 0\r\n\r\n", false},
	{"control byte in target", "GET /a\x7fb HTTP/1.1\r\n\r\n", false},
	{"empty target", "GET  HTTP/1.1\r\n\r\n", false},
	{"bad method", "PO(ST /invoke/echo HTTP/1.1\r\n\r\n", false},
	{"no version", "GET /healthz\r\n\r\n", false},
	{"unterminated", "POST /invoke/echo HTTP/1.1\r\nContent-Length: 5\r\n", false},
	{"empty", "", false},
}

func TestParseRequestHead(t *testing.T) {
	for _, tc := range reqHeadCases {
		if got := checkReqHeadAgainstNetHTTP(t, []byte(tc.in)); got != tc.framed {
			t.Errorf("%s: framed=%v, want %v", tc.name, got, tc.framed)
		}
	}
}

func FuzzEdgeRequestHead(f *testing.F) {
	for _, tc := range reqHeadCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReqHeadAgainstNetHTTP(t, data)
	})
}

package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
)

// TestInvokeErrorStatusBothTransports runs one table of invoke errors
// through both transports: the edge and the net/http handler share one
// status mapping, so each error answers the same status, Retry-After and
// draining marker on both. (The edge once answered a stateful function's
// state.ErrDegraded with a bare 500.)
func TestInvokeErrorStatusBothTransports(t *testing.T) {
	cases := []struct {
		err        error
		status     int
		retryAfter string
		draining   bool
	}{
		{state.ErrDegraded, http.StatusServiceUnavailable, "1", false},
		{fmt.Errorf("put: %w", state.ErrDegraded), http.StatusServiceUnavailable, "1", false},
		{pool.ErrDegraded, http.StatusServiceUnavailable, "1", false},
		{pool.ErrSaturated, http.StatusTooManyRequests, "1", false},
		{pool.ErrDraining, http.StatusServiceUnavailable, "5", true},
		{pool.ErrUnknownFunction, http.StatusNotFound, "", false},
		{errors.New("intentional"), http.StatusInternalServerError, "", false},
	}
	reg := router.New()
	reg.MustRegister("err", func(ctx router.Ctx) ([]byte, error) {
		var i int
		fmt.Sscan(string(ctx.Payload()), &i)
		return nil, cases[i].err
	})
	muxURL, edgeAddr, _, stop := newRig(t, smallPool(), reg)
	defer stop()
	client := &http.Client{Timeout: 5 * time.Second}
	for i, tc := range cases {
		for _, base := range []string{muxURL, "http://" + edgeAddr} {
			resp, err := client.Post(base+"/invoke/err", "text/plain", strings.NewReader(fmt.Sprint(i)))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status || resp.Header.Get("Retry-After") != tc.retryAfter ||
				(resp.Header.Get(DrainingHeader) == "1") != tc.draining || !strings.Contains(string(body), tc.err.Error()) {
				t.Errorf("%v via %s: status=%d Retry-After=%q draining=%q body=%q; want %d %q draining=%v",
					tc.err, base, resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get(DrainingHeader),
					body, tc.status, tc.retryAfter, tc.draining)
			}
		}
	}
}

// TestInvokeChunkedBody: the net/http transport reads a chunked /invoke
// body under the cap — past one pooled buffer, so the reader grows it —
// refuses one over the cap with 413, and one cut off mid-chunk with 400.
func TestInvokeChunkedBody(t *testing.T) {
	const limit = 64 << 10
	reg := router.New()
	reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) { return ctx.Payload(), nil })
	muxURL, _, _, stop := newRig(t, smallPool(), reg, func(g *Gateway) { g.MaxBodyBytes = limit })
	defer stop()
	under := strings.Repeat("x", 40<<10)
	for _, tc := range []struct {
		name, chunks string
		eof          bool // the client half-closes after the chunks: the body ends early
		status       int
		want         string
	}{
		{"under the cap", chunk(under) + "0\r\n\r\n", false, http.StatusOK, under},
		{"over the cap", chunk(strings.Repeat("y", limit+1)) + "0\r\n\r\n", false, http.StatusRequestEntityTooLarge, ""},
		{"truncated chunk", "5\r\nhel", true, http.StatusBadRequest, ""},
	} {
		status, body := postChunked(t, strings.TrimPrefix(muxURL, "http://"), tc.chunks, tc.eof)
		if status != tc.status || tc.want != "" && body != tc.want {
			t.Errorf("%s: status %d, %d body bytes; want %d, %d", tc.name, status, len(body), tc.status, len(tc.want))
		}
	}
}

// chunk frames s as one chunk of a chunked body.
func chunk(s string) string { return fmt.Sprintf("%x\r\n%s\r\n", len(s), s) }

// postChunked sends POST /invoke/echo with a chunked body over a raw
// connection and returns the response's status and body.
func postChunked(t *testing.T, addr, chunks string, eof bool) (int, string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		io.WriteString(c, "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"+chunks)
		if eof {
			c.(*net.TCPConn).CloseWrite()
		}
	}()
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

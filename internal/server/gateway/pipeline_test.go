package gateway

import (
	"errors"
	"fmt"
	"io"
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

package httpwire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestReadBody: a declared body is read to its length and refused over the
// limit before a byte is read; an undeclared (chunked) one is read to EOF,
// growing past one pooled buffer, and refused once it passes the limit.
func TestReadBody(t *testing.T) {
	const limit = 64 << 10
	big := strings.Repeat("x", 40<<10)
	for _, tc := range []struct {
		name string
		in   io.Reader
		n    int64
		want string
		err  error
	}{
		{"declared", strings.NewReader("hello, and more"), 5, "hello", nil},
		{"declared empty", strings.NewReader(""), 0, "", nil},
		{"declared short", strings.NewReader("abc"), 9, "", io.ErrUnexpectedEOF},
		{"declared over the limit", brokenReader{}, limit + 1, "", ErrTooLarge},
		{"undeclared", strings.NewReader(big), -1, big, nil},
		{"undeclared at the limit", strings.NewReader(strings.Repeat("y", limit)), -1, strings.Repeat("y", limit), nil},
		{"undeclared over the limit", strings.NewReader(strings.Repeat("z", limit+1)), -1, "", ErrTooLarge},
		{"undeclared broken", io.MultiReader(strings.NewReader("ab"), brokenReader{}), -1, "", errBroken},
	} {
		body, bp, err := ReadBody(tc.in, tc.n, limit)
		if !errors.Is(err, tc.err) || !bytes.Equal(body, []byte(tc.want)) || (err == nil) != (bp != nil) {
			t.Errorf("%s: %d bytes, pooled %v, err %v; want %d bytes, err %v", tc.name, len(body), bp != nil, err, len(tc.want), tc.err)
		}
		PutBody(bp)
	}
}

var errBroken = errors.New("broken reader")

// brokenReader fails every read.
type brokenReader struct{}

func (brokenReader) Read([]byte) (int, error) { return 0, errBroken }

package workloads

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// refAddLine, refPrependLine and refBumpCount are the list and counter
// operations written over strings.Fields and strconv.ParseUint: the
// reference model the in-place scanner must match.
func refAddLine(old []byte, line string) []byte {
	for _, l := range strings.Fields(string(old)) {
		if l == line {
			return old
		}
	}
	out := make([]byte, 0, len(old)+len(line)+1)
	out = append(out, old...)
	if len(out) > 0 && out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	out = append(out, line...)
	return out
}

func refPrependLine(old []byte, line string, max int) []byte {
	lines := strings.Fields(string(old))
	out := make([]byte, 0, len(old)+len(line)+1)
	out = append(out, line...)
	for i, l := range lines {
		if i >= max-1 {
			break
		}
		out = append(out, '\n')
		out = append(out, l...)
	}
	return out
}

func refBumpCount(old []byte) []byte {
	n, _ := strconv.ParseUint(string(old), 10, 64)
	return strconv.AppendUint(nil, n+1, 10)
}

// sameSlice reports whether a and b are the very same slice: no copy.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// FuzzSocialLists holds the list operations to the strings.Fields model:
// the same fields, the same committed bytes, and old itself handed back
// whenever the model hands it back (a follow of an existing edge commits
// the value it took, not a copy).
func FuzzSocialLists(f *testing.F) {
	for _, seed := range []struct {
		old, line string
		max       uint8
	}{
		{"", "a", 32},
		{"a\nb\nc", "b", 32},
		{"a\nb\nc", "d", 2},
		{"a\vb\fc\rd", "c", 3},
		{"  a \t\t b\n\n\nc  ", "b", 32},
		{"a\u0085b", "a", 32},
		{"a b ", "b", 1},
		{"x y z", "y", 32},
		{"a\u200bb", "a", 32}, // zero-width space: not space to strings.Fields
		{"a\u00a0b", "b", 32},
		{"a\u2028b\u2029c", "c", 2},
		{"\xff\xfe a \xc2", "\xc2", 32},
		{"a\n", "", 0},
		{"18446744073709551615", "", 32},
		{"18446744073709551616", "", 32},
		{"99999999999999999999x", "", 32},
		{"12x", "", 32},
		{"+7", "", 32},
		{"41", "41", 32},
		// A '\n\n' at the cut, inside a word and across two.
		{"ab\n\ncd", "x", 2},
		{"ab\n\ncd", "x", 3},
		{"abcdefg\n\nhij", "x", 3},
		{"a\nb\n", "x", 32},
		{"\na\nb", "x", 2},
		// 0x7F, 0x80, U+0085 and U+00A0 straddling a word boundary.
		{"abcdefg\x7fh\ni", "h", 2},
		{"abcdefg\x80h\ni", "i", 2},
		{"abcdefg\u0085h\ni", "h", 3},
		{"abcdef\n\u00a0h\ni", "h", 3},
		// line inside a longer field, and at either end of the list.
		{"u123\nu4", "u12", 32},
		{"xu12\nu4", "u12", 32},
		{"u12\nu4", "u12", 32},
		{"u4\nu12", "u12", 32},
		{"u4\u0085u12", "u12", 32},
		{"u4\xc2u12", "u12", 32},
		// A line that is not one field of bytes 0x21–0x7F, and one with 0x7F.
		{"a b", "a b", 32},
		{"a\x7f b", "a\x7f", 32},
	} {
		f.Add([]byte(seed.old), seed.line, seed.max)
	}
	// The cut on each byte of the first and second 8-byte word.
	for cut := 1; cut < 16; cut++ {
		f.Add([]byte(strings.Repeat("a", cut)+"\nbb\ncc"), "x", uint8(2))
	}
	f.Fuzz(func(t *testing.T, old []byte, line string, max uint8) {
		var fields [][]byte
		for fl, rest := nextField(old); fl != nil; fl, rest = nextField(rest) {
			fields = append(fields, fl)
		}
		want := strings.Fields(string(old))
		if len(fields) != len(want) {
			t.Fatalf("nextField over %q: %d fields, strings.Fields %d", old, len(fields), len(want))
		}
		for i := range want {
			if string(fields[i]) != want[i] {
				t.Fatalf("nextField over %q: field %d = %q, want %q", old, i, fields[i], want[i])
			}
		}

		orig := bytes.Clone(old)
		got, ref := addLine(old, line), refAddLine(old, line)
		if !bytes.Equal(got, ref) {
			t.Fatalf("addLine(%q, %q) = %q, want %q", old, line, got, ref)
		}
		if sameSlice(got, old) != sameSlice(ref, old) {
			t.Fatalf("addLine(%q, %q) returned old: %v, model: %v", old, line, sameSlice(got, old), sameSlice(ref, old))
		}

		m := int(max % 40)
		if got, ref := prependLine(old, line, m), refPrependLine(old, line, m); !bytes.Equal(got, ref) {
			t.Fatalf("prependLine(%q, %q, %d) = %q, want %q", old, line, m, got, ref)
		}

		if got, ref := bumpCount(old, ""), refBumpCount(old); !bytes.Equal(got, ref) {
			t.Fatalf("bumpCount(%q) = %s, want %s", old, got, ref)
		}
		if !bytes.Equal(old, orig) {
			t.Fatalf("list operations wrote into old: %q, was %q", old, orig)
		}
	})
}

// TestSocialFollowAllocsFlat: following someone already followed costs the
// same allocations, and within a few bytes the same allocated bytes, on a
// user with 2,000 followees as on one with 4 — the membership test scans
// the stored list in place instead of copying and splitting it.
func TestSocialFollowAllocsFlat(t *testing.T) {
	if race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, _ := startSocialPool(t, 4)
	ctx := context.Background()
	follow := func(payload []byte) {
		if _, err := p.Invoke(ctx, "social.follow", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		follow([]byte(fmt.Sprintf("hot u%d", i)))
	}
	for i := 0; i < 4; i++ {
		follow([]byte(fmt.Sprintf("cold u%d", i)))
	}
	const runs = 200
	perOp := func(payload string) (allocs, bytes float64) {
		b := []byte(payload)
		allocs = testing.AllocsPerRun(runs, func() { follow(b) })
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			follow(b)
		}
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	hotAllocs, hotBytes := perOp("hot u1999")
	coldAllocs, coldBytes := perOp("cold u3")
	if hotAllocs != coldAllocs {
		t.Fatalf("existing follow allocates %v/op with 2000 followees, %v/op with 4", hotAllocs, coldAllocs)
	}
	if hotBytes > coldBytes+256 {
		t.Fatalf("existing follow allocates %.0f B/op with 2000 followees, %.0f B/op with 4", hotBytes, coldBytes)
	}
	t.Logf("existing follow: %v allocs/op; %.0f B/op at 2000 followees, %.0f at 4", hotAllocs, hotBytes, coldBytes)
}

// TestPrependLineAllocs: pushing onto a full timeline allocates exactly
// the committed value.
func TestPrependLineAllocs(t *testing.T) {
	if race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var tl []byte
	for i := 0; i < timelineCap; i++ {
		tl = prependLine(tl, fmt.Sprintf("u%d/%d", i%7, i), timelineCap)
	}
	if n := len(strings.Fields(string(tl))); n != timelineCap {
		t.Fatalf("timeline holds %d entries, want %d", n, timelineCap)
	}
	var out []byte
	if a := testing.AllocsPerRun(100, func() { out = prependLine(tl, "u9/99", timelineCap) }); a != 1 {
		t.Fatalf("prependLine on a %d-entry timeline: %v allocs, want 1", timelineCap, a)
	}
	if !bytes.HasPrefix(out, []byte("u9/99\n")) {
		t.Fatalf("prependLine result %q", out)
	}
}

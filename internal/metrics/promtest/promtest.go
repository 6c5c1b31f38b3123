// Package promtest checks a Prometheus text exposition (format 0.0.4)
// line by line, for the /metrics tests of both tiers.
package promtest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string // values unescaped
	Value  float64
}

// Exposition is a parsed /metrics body.
type Exposition struct {
	Families []string          // family names in TYPE order
	Types    map[string]string // family name -> TYPE
	Samples  []Sample          // in emit order
}

// Parse reads a /metrics body and fails t on anything the format does not
// allow: a comment other than HELP or TYPE, a family typed twice, a sample
// before its family's TYPE, a malformed name or label set, an escape other
// than \\, \" and \n, an unparseable value, or a histogram whose buckets
// are not cumulative, ascending in le and closed by a +Inf bucket equal to
// _count.
func Parse(t testing.TB, r io.Reader) *Exposition {
	t.Helper()
	e := &Exposition{Types: map[string]string{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 || !validName(f[2]) {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := e.Types[f[2]]; dup {
				t.Fatalf("family %s typed twice", f[2])
			}
			e.Types[f[2]] = f[3]
			e.Families = append(e.Families, f[2])
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line: %q", line)
		default:
			s, err := parseSample(line)
			if err != nil {
				t.Fatalf("malformed sample line %q: %v", line, err)
			}
			if e.family(s.Name) == "" {
				t.Fatalf("sample %q has no preceding TYPE", line)
			}
			e.Samples = append(e.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	e.checkHistograms(t)
	return e
}

// family returns the typed family a sample name belongs to, or "".
func (e *Exposition) family(name string) string {
	if _, ok := e.Types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if _, ok := e.Types[base]; ok {
				return base
			}
		}
	}
	return ""
}

// Value returns the value of the sample with this name and exactly these
// labels, and whether there is one.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name == name && labelKey(s.Labels, "") == labelKey(labels, "") {
			return s.Value, true
		}
	}
	return 0, false
}

// LabelValues returns the values of one label over the samples of name.
func (e *Exposition) LabelValues(name, label string) []string {
	var out []string
	for _, s := range e.Samples {
		if v, ok := s.Labels[label]; ok && s.Name == name {
			out = append(out, v)
		}
	}
	return out
}

func (e *Exposition) checkHistograms(t testing.TB) {
	t.Helper()
	type series struct {
		les    []float64
		counts []float64
	}
	buckets := map[string]*series{} // family + other labels -> buckets in emit order
	for _, s := range e.Samples {
		base, ok := strings.CutSuffix(s.Name, "_bucket")
		if !ok || e.Types[base] != "histogram" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			t.Fatalf("%s: bad le %q", base, s.Labels["le"])
		}
		key := base + "\x00" + labelKey(s.Labels, "le")
		if buckets[key] == nil {
			buckets[key] = &series{}
		}
		buckets[key].les = append(buckets[key].les, le)
		buckets[key].counts = append(buckets[key].counts, s.Value)
	}
	for key, b := range buckets {
		if !sort.Float64sAreSorted(b.les) || !sort.Float64sAreSorted(b.counts) {
			t.Fatalf("histogram %q: buckets not ascending in le and cumulative: le=%v counts=%v", key, b.les, b.counts)
		}
		n := len(b.les) - 1
		if !math.IsInf(b.les[n], 1) {
			t.Fatalf("histogram %q: last bucket le=%v, not +Inf", key, b.les[n])
		}
		base, _, _ := strings.Cut(key, "\x00")
		var count float64 = -1
		for _, s := range e.Samples {
			if s.Name == base+"_count" && labelKey(s.Labels, "") == key[len(base)+1:] {
				count = s.Value
			}
		}
		if b.counts[n] != count {
			t.Fatalf("histogram %q: +Inf bucket %v != _count %v", key, b.counts[n], count)
		}
	}
}

// labelKey renders labels, less one, in a canonical order.
func labelKey(labels map[string]string, except string) string {
	var parts []string
	for k, v := range labels {
		if k != except {
			parts = append(parts, k+"="+strconv.Quote(v))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`).MatchString

// parseSample parses name{label="value",...} value.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 || !validName(line[:i]) {
		return s, fmt.Errorf("bad metric name")
	}
	s.Name, line = line[:i], line[i:]
	if line[0] == '{' {
		line = line[1:]
		for !strings.HasPrefix(line, "}") {
			eq := strings.Index(line, `="`)
			if eq < 0 || !validName(line[:eq]) {
				return s, fmt.Errorf("bad label name")
			}
			name := line[:eq]
			if _, dup := s.Labels[name]; dup {
				return s, fmt.Errorf("label %s repeated", name)
			}
			val, rest, err := unescape(line[eq+2:])
			if err != nil {
				return s, err
			}
			s.Labels[name] = val
			line = rest
			if strings.HasPrefix(line, ",") {
				line = line[1:]
			} else if !strings.HasPrefix(line, "}") {
				return s, fmt.Errorf("label set not closed")
			}
		}
		line = line[1:]
	}
	v, ok := strings.CutPrefix(line, " ")
	if !ok || strings.Contains(v, " ") {
		return s, fmt.Errorf("want one space, then the value")
	}
	var err error
	if s.Value, err = strconv.ParseFloat(v, 64); err != nil {
		return s, fmt.Errorf("value: %v", err)
	}
	return s, nil
}

// unescape reads a label value up to its closing quote, returning the
// value and what follows the quote.
func unescape(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i++; i == len(s) {
				return "", "", fmt.Errorf("dangling backslash")
			}
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("escape \\%c is not in the format", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("label value not closed")
}

package metrics

import (
	"bytes"
	"fmt"
	"testing"
)

type promRow struct {
	Name  string `json:"name" metric:"label"`
	Count uint64 `json:"count" metric:"counter" help:"Row count."`
	Note  string `json:"note"`
}

type promInner struct {
	Hits uint64 `json:"hits" metric:"counter" help:"Inner hits."`
}

type promEmbedded struct {
	Depth int `json:"depth" metric:"gauge" help:"Queue depth."`
}

type promDoc struct {
	Up    bool    `json:"up" metric:"gauge" help:"1 while up."`
	Ratio float64 `json:"ratio,omitempty" metric:"gauge" help:"A ratio."`
	Done  uint64  `json:"done" metric:"counter" help:"Done."`
	Skip  int     `json:"skip"`
	promEmbedded
	Inner  *promInner `json:"inner,omitempty"`
	Absent *promInner `json:"absent,omitempty"`
	Rows   []promRow  `json:"rows"`
}

// TestFamiliesText pins the encoder's naming and rendering rules: the JSON
// key is the name, counters get _total, untagged fields stay out, an
// embedded struct keeps the prefix, a pointer extends it (and a nil one
// has no samples), and slice rows are labelled by their label field with
// only the format's three escapes.
func TestFamiliesText(t *testing.T) {
	doc := promDoc{
		Up: true, Ratio: 0.25, Done: 1 << 40, Skip: 7,
		promEmbedded: promEmbedded{Depth: 3},
		Inner:        &promInner{Hits: 2},
		Rows:         []promRow{{Name: "a\"b", Count: 1}, {Name: "a\\b", Count: 2}, {Name: "a\nb\t", Count: 3}},
	}
	var b bytes.Buffer
	WriteFamilies(&b, Families("x", &doc))
	want := `# HELP x_up 1 while up.
# TYPE x_up gauge
x_up 1
# HELP x_ratio A ratio.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_done_total Done.
# TYPE x_done_total counter
x_done_total 1099511627776
# HELP x_depth Queue depth.
# TYPE x_depth gauge
x_depth 3
# HELP x_inner_hits_total Inner hits.
# TYPE x_inner_hits_total counter
x_inner_hits_total 2
# HELP x_rows_count_total Row count.
# TYPE x_rows_count_total counter
x_rows_count_total{name="a\"b"} 1
x_rows_count_total{name="a\\b"} 2
x_rows_count_total{name="a\nb	"} 3
`
	if got := b.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}

	var keys []string
	for _, f := range Families("x", promDoc{}) {
		keys = append(keys, f.Key+"="+f.Kind)
	}
	wantKeys := "[up=gauge ratio=gauge done=counter depth=gauge inner.hits=counter absent.hits=counter rows[name].count=counter]"
	if got := fmt.Sprint(keys); got != wantKeys {
		t.Fatalf("keys of an empty document: %s, want %s", got, wantKeys)
	}
}

// TestAdd: numeric fields sum, everything else is left alone.
func TestAdd(t *testing.T) {
	type counts struct {
		N    uint64
		D    int
		F    float64
		Up   bool
		Name string
	}
	dst := counts{N: 1, D: -2, F: 0.5, Name: "keep"}
	Add(&dst, &counts{N: 2, D: 5, F: 0.25, Up: true, Name: "other"})
	if want := (counts{N: 3, D: 3, F: 0.75, Name: "keep"}); dst != want {
		t.Fatalf("Add = %+v, want %+v", dst, want)
	}
}

package metrics

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// The Prometheus text exposition format (0.0.4), rendered from a live
// stats document. A document is a struct whose fields declare their own
// export: the `json` key names the series, a `metric` tag gives the kind —
// "counter" or "gauge" — and a `help` tag the HELP text. A field without a
// `metric` tag stays JSON-only. Walking the document:
//
//   - a bool, integer or float field is the series <prefix>_<json key>,
//     with _total appended to a counter;
//   - a pointer to a struct extends the prefix with its own key (a nil one
//     has no samples); an embedded struct keeps the prefix, as JSON
//     inlines its keys;
//   - a slice of structs is one family per scalar field of its element,
//     each row labelled by the element's `metric:"label"` field under that
//     field's key.

// TextContentType is the Content-Type of a /metrics answer.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// Family is one metric family of a document.
type Family struct {
	Key     string // the field's path in the JSON document, rows by label: "pool_shed", "state.gets", "funcs[name].count"
	Name    string
	Kind    string // "counter" or "gauge"
	Help    string
	Samples []Sample
}

// Sample is one series of a family.
type Sample struct {
	Labels string // rendered label pairs without braces, e.g. name="echo"; empty for a scalar
	Value  float64
}

// Families flattens doc, a struct or a pointer to one, into its metric
// families in field order. Families come from the type: a field with no
// value in doc — a nil pointer, an empty slice — is a family without
// samples.
func Families(prefix string, doc any) []Family {
	v := reflect.Indirect(reflect.ValueOf(doc))
	var fams []Family
	walk(&fams, v.Type(), prefix, "", []row{{v: v}})
	return fams
}

// row is one instance of the struct being walked: the document, or one
// element of a slice of rows with its labels.
type row struct {
	labels string
	v      reflect.Value
}

func walk(fams *[]Family, t reflect.Type, name, key string, rows []row) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		sub := make([]row, 0, len(rows))
		for _, r := range rows {
			sub = append(sub, row{r.labels, r.v.Field(i)})
		}
		if f.Anonymous && f.Type.Kind() == reflect.Struct {
			walk(fams, f.Type, name, key, sub)
			continue
		}
		jk, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || jk == "" || jk == "-" {
			continue
		}
		path := jk
		if key != "" {
			path = key + "." + jk
		}
		ft := f.Type
		switch {
		case ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct:
			var elems []row
			for _, r := range sub {
				if !r.v.IsNil() {
					elems = append(elems, row{r.labels, r.v.Elem()})
				}
			}
			walk(fams, ft.Elem(), name+"_"+jk, path, elems)
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct:
			rows, label := expand(sub, ft.Elem())
			walk(fams, ft.Elem(), name+"_"+jk, path+"["+label+"]", rows)
		default:
			kind := f.Tag.Get("metric")
			if kind != "counter" && kind != "gauge" {
				continue
			}
			fam := Family{Key: path, Name: name + "_" + jk, Kind: kind, Help: f.Tag.Get("help")}
			if kind == "counter" {
				fam.Name += "_total"
			}
			for _, r := range sub {
				fam.Samples = append(fam.Samples, Sample{r.labels, value(r.v)})
			}
			*fams = append(*fams, fam)
		}
	}
}

// expand turns each row holding a slice of elem into one row per element,
// labelled by elem's label field, and returns that field's key.
func expand(rows []row, elem reflect.Type) ([]row, string) {
	label := -1
	for i := 0; i < elem.NumField(); i++ {
		if elem.Field(i).Tag.Get("metric") == "label" {
			label = i
		}
	}
	if label < 0 {
		panic("metrics: row type " + elem.String() + " has no metric:\"label\" field")
	}
	lk, _, _ := strings.Cut(elem.Field(label).Tag.Get("json"), ",")
	var out []row
	for _, r := range rows {
		for j := 0; j < r.v.Len(); j++ {
			e := r.v.Index(j)
			out = append(out, row{lk + `="` + EscapeLabel(e.Field(label).String()) + `"`, e})
		}
	}
	return out, lk
}

func value(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		return v.Float()
	}
	panic("metrics: a " + v.Type().String() + " field cannot be a sample")
}

// WriteFamilies renders families in the text format, skipping those
// without samples.
func WriteFamilies(b *bytes.Buffer, fams []Family) {
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		WriteHeader(b, f.Name, f.Help, f.Kind)
		for _, s := range f.Samples {
			b.WriteString(f.Name)
			if s.Labels != "" {
				b.WriteString("{" + s.Labels + "}")
			}
			b.WriteString(" " + FormatValue(s.Value) + "\n")
		}
	}
}

// WriteHeader writes a family's HELP and TYPE lines.
func WriteHeader(b *bytes.Buffer, name, help, kind string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// FormatValue renders a sample value as a plain decimal, without the
// exponent forms Go's %v picks for large values.
func FormatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabel escapes a label value with the only three escapes the
// format defines: backslash, double quote and line feed. Every other byte
// goes through as is.
func EscapeLabel(s string) string { return labelEscaper.Replace(s) }

// Add adds each integer and float field of src into the same field of
// dst, leaving other fields alone: how a fleet document totals the
// documents of its members.
func Add[T any](dst, src *T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		df, sf := d.Field(i), s.Field(i)
		switch df.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			df.SetInt(df.Int() + sf.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			df.SetUint(df.Uint() + sf.Uint())
		case reflect.Float32, reflect.Float64:
			df.SetFloat(df.Float() + sf.Float())
		}
	}
}

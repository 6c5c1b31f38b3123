package cluster

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"jord/internal/metrics"
	"jord/internal/server/gateway"
)

// TestReadmeMetricsTable holds README's Metrics tables equal to what the
// encoder makes of each tier's /statsz document: one row per key, with its
// series, kind and help.
func TestReadmeMetricsTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		prefix string
		doc    any
	}{{"jord", gateway.Statsz{}}, {"jord_dispatcher", Statsz{}}} {
		var b strings.Builder
		b.WriteString("| `/statsz` key | series | kind | meaning |\n|---|---|---|---|\n")
		for _, f := range metrics.Families(tier.prefix, tier.doc) {
			fmt.Fprintf(&b, "| `%s` | `%s` | %s | %s |\n", f.Key, f.Name, f.Kind, f.Help)
		}
		if !strings.Contains(string(readme), b.String()) {
			t.Errorf("README.md lacks the %s_* table; it should read:\n%s", tier.prefix, b.String())
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
)

// reportHead opens every BENCH_*.json document: the mode that wrote it,
// the toolchain, and the box. A number means nothing without the machine
// it was measured on.
type reportHead struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Box         string `json:"box"`
}

func newReportHead(generatedBy string) reportHead {
	return reportHead{
		GeneratedBy: generatedBy,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Box:         boxStamp(),
	}
}

// boxStamp names the machine: CPU model, CPU count, OS and architecture.
func boxStamp() string {
	model := "unknown cpu"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d cpus, %s/%s", model, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
}

// writeReport writes a report as indented JSON to out ("-" = stdout).
func writeReport(out string, report any) {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

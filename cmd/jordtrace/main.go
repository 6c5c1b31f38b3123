// Command jordtrace walks one function invocation through the runtime and
// prints the Figure 4 flow with measured virtual-time costs: dispatch, PD
// initialization, execution, nested invocation, teardown — plus the
// PrivLib operation totals the request generated.
//
// Usage:
//
//	jordtrace [-nested 2]
//	jordtrace -live host:port [-fn name]
//
// With -live, instead of simulating, jordtrace pulls a REAL trace from a
// running jordd's /tracez (its slowest retained invocation, optionally
// filtered to one function) and renders the same Figure 4 flow from the
// measured wall-clock stage stamps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"jord"
	"jord/internal/cliutil"
	"jord/internal/core"
	"jord/internal/privlib"
	"jord/internal/server/trace"
)

func main() {
	nested := cliutil.NewNonNegInt(2)
	live := flag.String("live", "", "render a real trace pulled from this jordd host:port instead of simulating")
	liveFn := flag.String("fn", "", "with -live: restrict to one function")
	flag.Var(nested, "nested", "number of nested invocations the traced function makes (>= 0)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jordtrace: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *live != "" {
		if err := renderLive(*live, *liveFn); err != nil {
			log.Fatal(err)
		}
		return
	}

	sys, err := jord.NewSystem(jord.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	child := sys.MustRegister("child", func(c *jord.Ctx) error {
		c.ExecNS(400)
		return nil
	})
	root := sys.MustRegister("traced", func(c *jord.Ctx) error {
		c.ExecNS(800)
		for i := 0; i < nested.Value(); i++ {
			if err := c.Call(child, 4); err != nil {
				return err
			}
		}
		c.ExecNS(300)
		return nil
	})

	tracer := &core.Tracer{Limit: 400}
	sys.SetTracer(tracer)
	req := sys.RunOnce(root, 8)
	if req == nil {
		log.Fatal("request did not complete")
	}

	freq := sys.M.Cfg.FreqGHz
	ns := func(c int64) float64 { return float64(c) / freq }

	fmt.Printf("one external request through the Figure 4 flow (%d nested calls)\n\n", nested.Value())
	fmt.Println("orchestrator:  enqueue -> JBSQ dispatch -> enqueue into executor")
	fmt.Printf("  dispatch           %8.0f ns\n", ns(int64(req.Trace.Dispatch)))
	fmt.Println("executor:      cget, mmap stack/heap, pcopy code, pmove ArgBuf, ccall")
	fmt.Printf("  isolation          %8.0f ns\n", ns(int64(req.Trace.Isolation)))
	fmt.Printf("  allocation         %8.0f ns\n", ns(int64(req.Trace.Alloc)))
	fmt.Println("function:      execute in PD, nested call/cexit/center cycles")
	fmt.Printf("  execution          %8.0f ns\n", ns(int64(req.Trace.Exec)))
	fmt.Printf("  communication      %8.0f ns  (zero-copy ArgBuf + notifications)\n", ns(int64(req.Trace.Comm)))

	fmt.Println("\nPrivLib operations issued on behalf of this run:")
	fmt.Printf("  %-10s %8s %12s\n", "op", "count", "avg ns")
	for op := privlib.Op(0); op < privlib.NumOps; op++ {
		st := sys.Lib.Stats.Ops[op]
		if st.Count == 0 {
			continue
		}
		fmt.Printf("  %-10s %8d %12.1f\n", op, st.Count, ns(int64(st.Cycles))/float64(st.Count))
	}
	if sys.Lib.Stats.ShootdownCount > 0 {
		fmt.Printf("  VLB shootdowns with remote sharers: %d (avg %.1f ns)\n",
			sys.Lib.Stats.ShootdownCount,
			ns(int64(sys.Lib.Stats.ShootdownCycles))/float64(sys.Lib.Stats.ShootdownCount))
	}

	fmt.Println("\nevent timeline:")
	fmt.Print(tracer.Render(freq))
}

// renderLive pulls /tracez from a running jordd and renders its slowest
// retained invocation (optionally one function's) in the Figure 4 flow —
// the live twin of the simulated rendering, with wall-clock nanoseconds in
// place of virtual cycles.
func renderLive(addr, fn string) error {
	url := fmt.Sprintf("http://%s/tracez", addr)
	if fn != "" {
		url += "?fn=" + fn
	}
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("fetching /tracez: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching /tracez: %s", resp.Status)
	}
	var doc trace.Doc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("decoding /tracez: %w", err)
	}

	// Pick the slowest retained external span; fall back to the most recent.
	var pick *trace.SpanView
	for i := range doc.Slow {
		for j := range doc.Slow[i].Spans {
			s := &doc.Slow[i].Spans[j]
			if s.External && (pick == nil || s.DurNS > pick.DurNS) {
				pick = s
			}
		}
	}
	if pick == nil {
		for i := range doc.Recent {
			s := &doc.Recent[i]
			if s.External && (pick == nil || s.DurNS > pick.DurNS) {
				pick = s
			}
		}
	}
	if pick == nil {
		return fmt.Errorf("no traced invocations retained yet — send some traffic first")
	}

	st := func(name string) int64 { return pick.Stages[name] }
	fmt.Printf("one live request through the Figure 4 flow: %s (%s, %.3f ms total",
		pick.Func, pick.Outcome, float64(pick.DurNS)/1e6)
	if pick.Children > 0 {
		fmt.Printf(", %d nested calls", pick.Children)
	}
	if pick.Watchdog {
		fmt.Print(", watchdog-flagged")
	}
	fmt.Print(")\n\n")
	row := func(label string, ns int64, note string) {
		if ns <= 0 {
			return
		}
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Printf("  %-14s %10.0f ns%s\n", label, float64(ns), note)
	}
	fmt.Println("gateway:       parse request line, headers, body off the socket")
	row("parse", st("parse"), "")
	fmt.Println("admission:     breaker verdict + admission gate")
	row("admit", st("admit"), "")
	fmt.Println("orchestrator:  enqueue -> JBSQ dispatch -> enqueue into executor")
	row("queue", st("queue"), "")
	fmt.Println("executor:      cget PD, map stack/heap, pmove ArgBuf")
	row("init", st("init"), "")
	fmt.Println("function:      execute in PD, nested call cexit/center cycles")
	row("exec", st("exec"), "")
	row("wait", st("wait"), "suspended on nested calls")
	if n := st("state"); n > 0 {
		row("state", n, fmt.Sprintf("%d shared-state ops, inside exec", pick.StateOps))
	}
	fmt.Println("teardown:      write back output, release ArgBuf, cput PD")
	row("teardown", st("teardown"), "")
	fmt.Println("response:      writev head + VMA-backed body to the socket")
	row("resp", st("resp"), "")
	if pick.OtherNS > 0 {
		row("other", pick.OtherNS, "unattributed")
	}
	return nil
}

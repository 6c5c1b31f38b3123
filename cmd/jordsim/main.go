// Command jordsim regenerates the paper's tables and figures.
//
// Usage:
//
//	jordsim -experiment table4
//	jordsim -experiment fig9 [-workload hipster] [-scale full]
//	jordsim -experiment params|motivation|coldstart|fig10|...|cluster|all [-seed 1]
//
// The experiment names, and the order -experiment all runs them in, come
// from experiments.All. Output is a plain-text rendering of the
// corresponding table/figure (rows and series, not graphics), with the
// paper's reported values shown alongside where applicable.
package main

import (
	"flag"
	"fmt"
	"os"

	"jord/internal/cliutil"
	"jord/internal/experiments"
)

func main() {
	names := make([]string, 0, len(experiments.All)+1)
	for _, e := range experiments.All {
		names = append(names, e.Name)
	}
	var (
		experiment = cliutil.NewChoice("all", append(names, "all")...)
		workload   = cliutil.NewChoice("", "", "hipster", "hotel", "media", "social")
		scaleName  = cliutil.NewChoice("quick", "quick", "full")
		seed       = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Var(experiment, "experiment", experiment.Allowed())
	flag.Var(workload, "workload", "restrict fig9 to one workload ("+workload.Allowed()+")")
	flag.Var(scaleName, "scale", "measurement scale: "+scaleName.Allowed())
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jordsim: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	sc := experiments.Quick
	if scaleName.Value() == "full" {
		sc = experiments.Full
	}
	for _, e := range experiments.All {
		if experiment.Value() != "all" && experiment.Value() != e.Name {
			continue
		}
		r, err := e.Run(sc, workload.Value(), *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jordsim: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println(r.Render())
	}
}

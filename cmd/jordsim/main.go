// Command jordsim regenerates the paper's tables and figures.
//
// Usage:
//
//	jordsim -experiment table4
//	jordsim -experiment fig9 [-workload hipster] [-scale full]
//	jordsim -experiment fig10|fig11|fig12|fig13|fig14|overheads|params|all [-seed 1]
//
// Output is a plain-text rendering of the corresponding table/figure
// (rows and series, not graphics), with the paper's reported values shown
// alongside where applicable.
package main

import (
	"flag"
	"fmt"
	"os"

	"jord/internal/cliutil"
	"jord/internal/experiments"
	"jord/internal/sim/topo"
)

func main() {
	var (
		experiment = cliutil.NewChoice("all",
			"table4", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
			"overheads", "motivation", "coldstart", "dispatch", "mpk",
			"cluster", "params", "all")
		workload  = cliutil.NewChoice("", "", "hipster", "hotel", "media", "social")
		scaleName = cliutil.NewChoice("quick", "quick", "full")
		seed      = flag.Uint64("seed", 1, "simulation seed")
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

	run := func(name string) error {
		switch name {
		case "table4":
			r, err := experiments.RunTable4()
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "fig9":
			r, err := experiments.RunFig9(sc, workload.Value(), *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "fig10":
			r, err := experiments.RunFig10(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "fig11":
			r, err := experiments.RunFig11(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "fig12":
			r, err := experiments.RunFig12(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "fig13":
			r, err := experiments.RunFig13(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "fig14":
			r, err := experiments.RunFig14(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "overheads":
			r, err := experiments.RunOverheads(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "motivation":
			r, err := experiments.RunMotivation()
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "coldstart":
			r, err := experiments.RunColdStart()
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "dispatch":
			r, err := experiments.RunDispatchAblation(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "mpk":
			r, err := experiments.RunMPKComparison(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "cluster":
			r, err := experiments.RunCluster(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "params":
			printParams()
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{experiment.Value()}
	if experiment.Value() == "all" {
		names = []string{
			"params", "motivation", "coldstart", "table4",
			"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
			"overheads", "dispatch", "mpk", "cluster",
		}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "jordsim: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// printParams echoes the Table 2 machine parameters in use.
func printParams() {
	cfg := topo.QFlex32()
	fmt.Println("Table 2: system parameters for simulation")
	fmt.Printf("  cores          %d (%dx%d mesh, %d socket)\n",
		cfg.TotalCores(), cfg.MeshX, cfg.MeshY, cfg.Sockets)
	fmt.Printf("  clock          %.0f GHz\n", cfg.FreqGHz)
	fmt.Printf("  L1             %d-cycle\n", cfg.L1Cycles)
	fmt.Printf("  LLC            %d-cycle/slice, directory-based MESI\n", cfg.LLCCycles)
	fmt.Printf("  NoC            %d cycles/hop, %d B links\n", cfg.HopCycles, cfg.LinkBytes)
	fmt.Printf("  DRAM           %d cycles at the controller, %d MCs\n", cfg.DRAMCycles, cfg.MemControllers)
	fmt.Printf("  inter-socket   %.0f ns\n", cfg.InterSocketNS)
	fmt.Println()
}

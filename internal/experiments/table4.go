package experiments

import (
	"fmt"
	"strings"

	"jord/internal/mem/vmatable"
	"jord/internal/privlib"
	"jord/internal/sim/topo"
	"jord/internal/vlb"
)

// Table4Row is one operation's latency on both platforms, with the
// paper's reported numbers alongside.
type Table4Row struct {
	Operation   string
	SimNS       float64
	FPGANS      float64
	PaperSimNS  float64
	PaperFPGANS float64
}

// Table4Result reproduces Table 4: VMA and PD operation latencies.
type Table4Result struct {
	Rows []Table4Row
}

// RunTable4 microbenchmarks every PrivLib operation on the cycle-accurate
// simulator model and the FPGA RTL model.
func RunTable4() (*Table4Result, error) {
	paper := map[string][2]float64{
		"VMA lookup":    {2, 2},
		"VMA update":    {16, 33},
		"VMA insertion": {16, 37},
		"VMA deletion":  {27, 39},
		"PD creation":   {11, 25},
		"PD deletion":   {14, 30},
		"PD switching":  {12, 22},
	}
	order := []string{
		"VMA lookup", "VMA update", "VMA insertion", "VMA deletion",
		"PD creation", "PD deletion", "PD switching",
	}

	measure := func(cfg topo.Config) (map[string]float64, error) {
		lib, err := privlib.Boot(topo.MustMachine(cfg), vlb.DefaultConfig(), privlib.PlainList)
		if err != nil {
			return nil, err
		}
		out := map[string]float64{}
		const iters = 64
		var lookup, update, insert, del, cget, cput, sw float64
		for i := 0; i < iters; i++ {
			pd, latCget, err := lib.Cget(0)
			if err != nil {
				return nil, err
			}
			addr, latMmap, err := lib.Mmap(0, pd, 256, vmatable.PermRW)
			if err != nil {
				return nil, err
			}
			// Warm walk, then the measured L1-hit walk (the common case).
			lib.Sub.Walk(0, decodeClass(lib, addr), decodeIndex(lib, addr), false)
			latWalk, _ := lib.Sub.Walk(0, decodeClass(lib, addr), decodeIndex(lib, addr), false)
			latUpd, err := lib.Mprotect(0, pd, addr, vmatable.PermR)
			if err != nil {
				return nil, err
			}
			latSwitch, err := lib.Ccall(0, pd)
			if err != nil {
				return nil, err
			}
			latDel, err := lib.Munmap(0, pd, addr)
			if err != nil {
				return nil, err
			}
			latCput, err := lib.Cput(0, pd)
			if err != nil {
				return nil, err
			}
			lookup += cfg.CyclesToNS(latWalk)
			update += cfg.CyclesToNS(latUpd)
			insert += cfg.CyclesToNS(latMmap)
			del += cfg.CyclesToNS(latDel)
			cget += cfg.CyclesToNS(latCget)
			cput += cfg.CyclesToNS(latCput)
			sw += cfg.CyclesToNS(latSwitch)
		}
		out["VMA lookup"] = lookup / iters
		out["VMA update"] = update / iters
		out["VMA insertion"] = insert / iters
		out["VMA deletion"] = del / iters
		out["PD creation"] = cget / iters
		out["PD deletion"] = cput / iters
		out["PD switching"] = sw / iters
		return out, nil
	}

	sim, err := measure(topo.QFlex32())
	if err != nil {
		return nil, err
	}
	fpga, err := measure(topo.FPGA2())
	if err != nil {
		return nil, err
	}

	res := &Table4Result{}
	for _, op := range order {
		res.Rows = append(res.Rows, Table4Row{
			Operation:   op,
			SimNS:       sim[op],
			FPGANS:      fpga[op],
			PaperSimNS:  paper[op][0],
			PaperFPGANS: paper[op][1],
		})
	}
	return res, nil
}

func decodeClass(lib *privlib.Lib, addr uint64) int {
	d, _ := lib.Enc.Decode(addr)
	return d.Class
}

func decodeIndex(lib *privlib.Lib, addr uint64) uint64 {
	d, _ := lib.Enc.Decode(addr)
	return d.Index
}

// Render formats the table.
func (r *Table4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: VMA and PD operation latencies (ns)\n")
	fmt.Fprintf(&b, "%-15s %10s %10s %12s %12s\n",
		"Operation", "Simulator", "FPGA", "paper(sim)", "paper(fpga)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-15s %10.0f %10.0f %12.0f %12.0f\n",
			row.Operation, row.SimNS, row.FPGANS, row.PaperSimNS, row.PaperFPGANS)
	}
	return b.String()
}

// ParamsResult echoes Table 2: the simulated machine's parameters.
type ParamsResult struct {
	Machine topo.Config
}

// RunParams reports the 32-core machine every single-server experiment
// runs on.
func RunParams() (*ParamsResult, error) {
	return &ParamsResult{Machine: topo.QFlex32()}, nil
}

// Render prints the parameters one per line.
func (r *ParamsResult) Render() string {
	cfg := r.Machine
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: system parameters for simulation\n")
	fmt.Fprintf(&b, "  cores          %d (%dx%d mesh, %d socket)\n",
		cfg.TotalCores(), cfg.MeshX, cfg.MeshY, cfg.Sockets)
	fmt.Fprintf(&b, "  clock          %.0f GHz\n", cfg.FreqGHz)
	fmt.Fprintf(&b, "  L1             %d-cycle\n", cfg.L1Cycles)
	fmt.Fprintf(&b, "  LLC            %d-cycle/slice, directory-based MESI\n", cfg.LLCCycles)
	fmt.Fprintf(&b, "  NoC            %d cycles/hop, %d B links\n", cfg.HopCycles, cfg.LinkBytes)
	fmt.Fprintf(&b, "  DRAM           %d cycles at the controller, %d MCs\n", cfg.DRAMCycles, cfg.MemControllers)
	fmt.Fprintf(&b, "  inter-socket   %.0f ns\n", cfg.InterSocketNS)
	return b.String()
}

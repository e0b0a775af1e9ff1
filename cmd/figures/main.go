// Command figures regenerates the paper's evaluation figures (3–7) and the
// extension experiments as text tables and optional CSV files, and checks
// each figure's qualitative claims.
//
// Usage:
//
//	figures                    # all figures, table output
//	figures -fig 7             # one figure
//	figures -csv out/          # also write CSV files
//	figures -horizon 40000 -reps 5   # higher fidelity
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"hybridqos/internal/experiments"
	"hybridqos/internal/workpool"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 3|4|5|6|7|blocking|multiclass|channels|indexing|load|faults|policy|cluster|all")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files (optional)")
		svgDir  = flag.String("svg", "", "directory to write per-figure SVG charts (optional)")
		horizon = flag.Float64("horizon", 20000, "simulated duration per replication")
		reps    = flag.Int("reps", 3, "replications per configuration")
		step    = flag.Int("step", 10, "cutoff sweep step")
		seed    = flag.Uint64("seed", 1, "base seed")
		workers = flag.Int("workers", 0, "sweep worker count (0 = one per spare CPU)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the generation to this file")
		memProf = flag.String("memprofile", "", "write a heap profile after generation to this file")
	)
	flag.Parse()

	if *workers > 0 {
		workpool.SetWorkers(*workers)
	}
	stopCPU := startCPUProfile(*cpuProf)

	p := experiments.Defaults()
	p.Horizon = *horizon
	p.Replications = *reps
	p.CutoffStep = *step
	p.Seed = *seed

	var selected []experiments.Generator
	for _, g := range experiments.Generators() {
		if *fig == "all" || *fig == g.ID {
			selected = append(selected, g)
		}
	}
	if len(selected) == 0 {
		fatal("unknown figure %q (want 3|4|5|6|7|blocking|multiclass|channels|indexing|load|faults|policy|cluster|all)", *fig)
	}

	failures := 0
	for _, g := range selected {
		fmt.Printf("=== generating %s ===\n", name(g.ID))
		f, err := g.Run(p)
		if err != nil {
			fatal("%s: %v", name(g.ID), err)
		}
		fmt.Println(f.Table().String())
		for _, c := range f.Claims {
			mark := "PASS"
			if !c.Pass {
				mark = "FAIL"
				failures++
			}
			fmt.Printf("  [%s] %s — %s\n", mark, c.Name, c.Detail)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal("mkdir %s: %v", *csvDir, err)
			}
			path := filepath.Join(*csvDir, strings.ToLower(f.ID)+".csv")
			if err := os.WriteFile(path, []byte(f.CSV().String()), 0o644); err != nil {
				fatal("writing %s: %v", path, err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				fatal("mkdir %s: %v", *svgDir, err)
			}
			svg, err := f.SVG()
			if err != nil {
				fatal("rendering %s: %v", f.ID, err)
			}
			path := filepath.Join(*svgDir, strings.ToLower(f.ID)+".svg")
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fatal("writing %s: %v", path, err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	// Profiles are flushed before the claims gate: fatal exits with os.Exit,
	// and a failing claim is exactly the run one wants a profile of.
	stopCPU()
	writeMemProfile(*memProf)
	if failures > 0 {
		fatal("%d claim(s) failed", failures)
	}
}

// startCPUProfile begins CPU profiling to path ("" disables) and returns the
// stop function.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal("cpuprofile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile writes a post-GC heap profile to path ("" disables).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("memprofile: %v", err)
	}
	defer f.Close()
	runtime.GC() // materialise final heap state
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal("memprofile: %v", err)
	}
}

func name(id string) string {
	switch id {
	case "blocking":
		return "EXT-BLOCK"
	case "multiclass":
		return "EXT-MULTI"
	case "channels":
		return "EXT-CHAN"
	case "indexing":
		return "EXT-INDEX"
	case "load":
		return "EXT-LOAD"
	case "faults":
		return "EXT-FAULTS"
	case "policy":
		return "EXT-POLICY"
	}
	return "Figure " + id
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	os.Exit(1)
}

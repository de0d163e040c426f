// Tapes demonstrates the pixie-style trace workflow: record a
// benchmark's address trace to a tape file, characterize it (the
// Table 1 columns), sample it down, and replay both against the same
// cache to see what sampling does to measured miss ratios.
//
//	go run ./examples/tapes
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/progs"
	"repro/internal/trace"
)

func main() {
	bench, err := progs.ByName("qsort")
	if err != nil {
		log.Fatal(err)
	}

	// Record: run the benchmark once, writing every event to a tape.
	path := filepath.Join(os.TempDir(), "qsort.gtrc")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	cpu := bench.NewCPU(1)
	n, err := trace.WriteAll(f, cpu)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d events of %s to %s\n", n, bench.Name, path)

	// Read it back and characterize (Table 1 columns).
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	tape, err := trace.ReadAll(rf)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("characterization:", trace.Characterize(tape.NewCursor()))

	// Replay the full tape and a 1-in-4 windowed sample against the
	// base architecture.
	full := replay(tape.NewCursor())
	sampled := replay(trace.Window(tape.NewCursor(), 25_000, 100_000))

	fmt.Printf("\n%-22s %12s %12s %12s\n", "", "L1-D miss", "L2 miss", "CPI")
	fmt.Printf("%-22s %12.4f %12.4f %12.3f\n", "full tape", full.L1DMissRatio(), full.L2MissRatio(), full.CPI())
	fmt.Printf("%-22s %12.4f %12.4f %12.3f\n", "windowed 1-in-4", sampled.L1DMissRatio(), sampled.L2MissRatio(), sampled.CPI())
	fmt.Println("\n(windowed sampling inflates miss ratios at each window start —")
	fmt.Println(" the cold-start bias the era's long-trace papers warned about)")

	os.Remove(path)
}

// replay runs one stream through a fresh base-architecture system.
func replay(src trace.Stream) core.Stats {
	sys, err := core.NewSystem(core.Base())
	if err != nil {
		log.Fatal(err)
	}
	stats, err := sys.Run(1, src)
	if err != nil {
		log.Fatal(err)
	}
	return stats
}

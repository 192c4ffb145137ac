// Command bench runs one scenario of the internal/bench registry at its
// full-size defaults, prints its text report and writes the
// machine-readable report that cmd/benchcmp compares across commits:
//
//	bench [-json path] [-cpuprofile path] [-memprofile path] <scenario>
//
// -json defaults to BENCH_<scenario>.json. The profiles cover the scenario
// run only, so a hot-path change can be justified by a before/after profile
// of the same scenario. Flags may also follow the scenario name.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"loopsched/internal/bench"
)

func main() {
	log.SetFlags(0)
	jsonPath := flag.String("json", "", "write the machine-readable report here (default BENCH_<scenario>.json)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the scenario run here")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the scenario run here")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bench [flags] <scenario>\nscenarios: %s\n",
			strings.Join(bench.ScenarioNames(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *jsonPath == "" {
		*jsonPath = "BENCH_" + name + ".json"
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	rep, err := bench.RunScenario(name, os.Stdout, true)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		log.Fatal(err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // surface only live objects: the retained footprint
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	if err := bench.WriteJSON(*jsonPath, rep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\ntotal %s\n", *jsonPath, bench.Elapsed(start))
}

// Command chronos-bench regenerates the paper's figures (deliverable d).
// Each experiment id corresponds to one figure of the paper; the suite
// table in main is the index.
//
// Usage:
//
//	chronos-bench                 # run everything at quick scale
//	chronos-bench -experiment e6  # just the storage-engine demo
//	chronos-bench -full           # the full-scale configuration
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"chronos/internal/experiments"
)

func main() {
	var (
		which = flag.String("experiment", "all", "experiment id (e1..e9) or 'all'")
		full  = flag.Bool("full", false, "full-scale configuration (slower: longer runs, full thread sweep)")
	)
	flag.Parse()

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}

	type runner func() (*experiments.Report, error)
	suite := []struct {
		id  string
		fn  runner
		fig string
	}{
		{"e1", func() (*experiments.Report, error) { return experiments.E1Architecture(cfg) }, "Fig. 1"},
		{"e2", experiments.E2SystemRegistration, "Fig. 2"},
		{"e3", experiments.E3ParamSpace, "Fig. 3a"},
		{"e4", func() (*experiments.Report, error) { return experiments.E4ParallelDeployments(cfg) }, "Fig. 3b"},
		{"e5", experiments.E5JobLifecycle, "Fig. 3c"},
		{"e6", func() (*experiments.Report, error) {
			rep, _, err := experiments.E6EngineComparison(cfg)
			return rep, err
		}, "Fig. 3d + demo"},
		{"e7", experiments.E7APIVersioning, "§2.2 REST"},
		{"e8", func() (*experiments.Report, error) { return experiments.E8FailureRecovery(cfg) }, "§1 req. iii/iv"},
		{"e9", func() (*experiments.Report, error) {
			rep, _, err := experiments.E9DynamicDrift(cfg)
			return rep, err
		}, "dynamic drift"},
	}

	sel := strings.ToLower(*which)
	ran := 0
	start := time.Now()
	for _, exp := range suite {
		if sel != "all" && sel != exp.id {
			continue
		}
		t0 := time.Now()
		rep, err := exp.fn()
		if err != nil {
			log.Fatalf("%s: %v", exp.id, err)
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s reproduces %s; took %v)\n\n", strings.ToUpper(exp.id), exp.fig, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "chronos-bench: unknown experiment %q (use e1..e9 or all)\n", *which)
		os.Exit(2)
	}
	fmt.Printf("ran %d experiment(s) in %v\n", ran, time.Since(start).Round(time.Millisecond))
}

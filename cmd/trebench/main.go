// Command trebench regenerates every experiment table in EXPERIMENTS.md
// (E1–E12, one per quantitative claim of the paper; see DESIGN.md §3).
//
//	trebench                  # run everything at full scope (SS512)
//	trebench -quick           # fast reduced sweeps (Test160)
//	trebench -exp E2          # one experiment
//	trebench -preset SS1024   # different parameter size
//	trebench -backend bls12381 # pin the Type-3 BLS12-381 backend
//	trebench -markdown        # emit markdown instead of aligned text
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"timedrelease/internal/bench"
	"timedrelease/tre"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced sweeps and iteration counts")
		exp      = flag.String("exp", "", "run a single experiment (E1..E12)")
		preset   = flag.String("preset", "", "parameter preset (default SS512, Test160 with -quick)")
		backendN = flag.String("backend", "", "pairing backend: symmetric (default) or bls12381")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavoured markdown")
	)
	flag.Parse()

	cfg := bench.Config{Quick: *quick, Preset: *preset}
	if *backendN != "" {
		// -backend pins the run to the backend's preset (bls12381 →
		// BLS12-381); an explicit -preset must agree with it.
		set, err := tre.ResolvePreset(*preset, *backendN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trebench:", err)
			os.Exit(2)
		}
		if *preset != "" && *preset != set.Name {
			fmt.Fprintf(os.Stderr, "trebench: -preset %s conflicts with -backend %s\n", *preset, *backendN)
			os.Exit(2)
		}
		cfg.Preset = set.Name
	}

	var (
		tables []*bench.Table
		err    error
	)
	start := time.Now()
	if *exp != "" {
		var t *bench.Table
		t, err = bench.RunOne(*exp, cfg)
		tables = []*bench.Table{t}
	} else {
		tables, err = bench.RunAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trebench:", err)
		os.Exit(1)
	}

	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *markdown {
			fmt.Print(t.Markdown())
		} else {
			fmt.Print(t.String())
		}
	}
	fmt.Fprintf(os.Stderr, "\ntrebench: %d experiment(s) in %v\n", len(tables), time.Since(start).Round(time.Millisecond))
}

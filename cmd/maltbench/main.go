// maltbench reproduces the tables and figures of the MALT paper's
// evaluation (§6) over the simulated substrate.
//
//	maltbench -exp fig4          # one experiment
//	maltbench -exp all -quick    # every experiment, CI-sized
//	maltbench -exp fig11 -curves # also dump the convergence curves
//	maltbench -list              # list experiment IDs
//
// The deterministic counters each report prints (wire bytes, message
// counts, conservation sums, fencing flags) are asserted at -quick size by
// the bench package's TestExperimentsQuick, so `go test ./...` is the gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"malt/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment ID (see -list) or 'all'")
		scale  = flag.Int("scale", 1, "dataset scale multiplier")
		quick  = flag.Bool("quick", false, "shrink runs to smoke-test size")
		curves = flag.Bool("curves", false, "print convergence curves after each report")
		verb   = flag.Bool("v", false, "log progress while experiments run")
		list   = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := bench.Options{Scale: *scale, Quick: *quick}
	if *verb {
		opts.Log = os.Stderr
	}

	var ids []string
	if *exp == "all" {
		ids = bench.IDs()
	} else {
		ids = strings.Split(*exp, ",")
	}
	failed := 0
	for _, id := range ids {
		e, err := bench.Get(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		report, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		report.Print(os.Stdout)
		if *curves {
			report.PrintSeries(os.Stdout)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

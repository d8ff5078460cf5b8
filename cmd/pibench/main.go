// Command pibench regenerates every table, figure and claim of the paper
// plus the Section III research-direction experiments, printing each
// experiment's rows: the output of `pibench -exp all` is the
// paper-versus-measured record.
//
// Usage:
//
//	pibench -list           # show experiment ids
//	pibench -exp t1         # run one experiment
//	pibench -exp all        # run everything (default)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "all", "experiment id to run, or 'all'")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "pibench:", err)
		os.Exit(1)
	}
}

func run(exp string) error {
	if exp == "all" {
		results, err := experiments.All()
		for _, r := range results {
			fmt.Println(r.Table)
		}
		return err
	}
	r, err := experiments.ByID(exp)
	if err != nil {
		return err
	}
	fmt.Println(r.Table)
	return nil
}

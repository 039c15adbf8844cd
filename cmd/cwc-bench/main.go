// Command cwc-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	cwc-bench -fig all
//	cwc-bench -fig 12 -seed 2012
//	cwc-bench -fig 13 -configs 1000
//
// Figure ids: 1, 2 (with 3), 4, 5, 6, 10, 11, 12, 13, cost, ablation.
// Output is the same series the paper plots; see EXPERIMENTS.md for the
// paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"cwc/internal/device"
	"cwc/internal/expt"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 1,2,3,4,5,6,10,11,12,13,cost,ablation,admission,week,all")
		seed    = flag.Int64("seed", 2012, "experiment seed")
		configs = flag.Int("configs", 100, "random configurations for figure 13 (paper: 1000)")
		days    = flag.Int("days", 56, "study length in days for figures 2-3")
		series  = flag.String("series", "", "also write gnuplot-ready data files for every figure into this directory")
	)
	flag.Parse()
	if err := run(*fig, *seed, *configs, *days); err != nil {
		fmt.Fprintln(os.Stderr, "cwc-bench:", err)
		os.Exit(1)
	}
	if *series != "" {
		if err := writeSeries(*series, *seed, *configs, *days); err != nil {
			fmt.Fprintln(os.Stderr, "cwc-bench: series:", err)
			os.Exit(1)
		}
		fmt.Printf("series files written to %s\n", *series)
	}
}

func run(fig string, seed int64, configs, days int) error {
	w := os.Stdout
	all := fig == "all"
	did := false

	if all || fig == "1" {
		expt.Fig1().Print(w)
		did = true
	}
	if all || fig == "2" || fig == "3" {
		r, err := expt.Fig23(seed, days)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if all || fig == "4" {
		r, err := expt.Fig4(seed)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if all || fig == "5" {
		r, err := expt.Fig5(seed)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if all || fig == "6" {
		r, err := expt.Fig6(seed)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if all || fig == "10" {
		r, err := expt.Fig10(device.HTCSensation)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if all || fig == "11" {
		tb, err := expt.NewTestbed(rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		expt.Fig11Print(w, tb)
		did = true
	}
	if all || fig == "12" {
		r, err := expt.Fig12(seed)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if all || fig == "13" {
		r, err := expt.Fig13(seed, configs)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if all || fig == "cost" {
		expt.Costs().Print(w)
		did = true
	}
	if all || fig == "ablation" {
		r, err := expt.Ablation(seed, 10)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if all || fig == "week" {
		r, err := expt.Week(seed, 7, 24)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if all || fig == "admission" {
		r, err := expt.Admission(seed, 20, 0.5)
		if err != nil {
			return err
		}
		r.Print(w)
		did = true
	}
	if !did {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

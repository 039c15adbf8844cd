// Command bench is the repository's benchmark: four emulated-fleet
// workloads measured end to end and layer by layer, from outside, by timing
// calls into the public functions of server, worker, wal, protocol, core,
// replica and tasks. README.md has the tables and the how-to.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is its JSON result
//	bench [--seed N] [--seconds S] [--reps R]             every workload, R untraced runs and one traced, each in a child
//	bench compare A.json B.json                           baseline against candidate, one row per workload and metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run this one workload and print its result as the last line (default: all of them, each in a child process)")
	seed := flag.Int64("seed", 2012, "seed for job sizes and contents")
	secs := flag.Int("seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "1: record spans, turn the program's own plane on, run the micro loops, report per-layer metrics")
	reps := flag.Int("reps", 1, "untraced runs per workload in all-workloads mode")
	out := flag.String("out", ".bench_out", "directory for span files, result files and scratch space")
	detail := flag.String("detail", "", "also write the run's full result (samples, guards, both metric sets) to this file")
	flag.Parse()
	if flag.NArg() > 0 || *secs < 1 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--reps R] | bench compare A.json B.json")
		os.Exit(2)
	}
	var err error
	if *workload == "" {
		err = runAll(*seed, *secs, *reps, *out)
	} else {
		err = runOne(*workload, *seed, *secs, *trace == 1, *out, *detail)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the driver's contract: one workload, one seed, and the last
// line of standard output is the result object.
func runOne(name string, seed int64, secs int, traced bool, out, detail string) error {
	s, ok := findSpec(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	spans := ""
	if traced {
		spans = filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	}
	res, err := runWorkload(context.Background(), s, seed, time.Duration(secs)*time.Second, traced, 3, scratch, spans)
	if err != nil {
		return err
	}
	if detail != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(detail, b, 0o644); err != nil {
			return err
		}
	}
	printRun(res)
	line, err := json.Marshal(driverLine(res))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// driverLine cuts the result down to the four keys the driver reads:
// every end-to-end metric of an untraced run, every per-layer metric of a
// traced one.
func driverLine(res *result) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	table, vals := endToEnd, res.EndToEnd
	if res.Traced {
		table, vals = perLayer, res.PerLayer
	}
	for _, m := range table {
		metrics[m.name] = value{vals[m.name], m.unit}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

// printRun prints every metric of the run by name with its unit, then the
// run-validity guards.
func printRun(res *result) {
	fmt.Printf("%s seed=%d traced=%v: %d episodes, %d rounds, %.1f MB submitted, inputs_sha256 %s\n",
		res.Workload, res.Seed, res.Traced, res.Episodes, res.Rounds, res.InputMB, res.InputsSHA256[:16])
	for _, m := range endToEnd {
		q := res.Quartiles[m.name]
		fmt.Printf("  %-34s %12.5g %-6s [q1 %.5g, q3 %.5g, n=%d]\n", m.name, res.EndToEnd[m.name], m.unit, q[0], q[1], res.Samples[m.name])
	}
	if res.Traced {
		for _, m := range perLayer {
			fmt.Printf("  %-40s %12.5g %s\n", m.name, res.PerLayer[m.name], m.unit)
		}
		var names []string
		for name := range res.SpanSelfMs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  self time of %-27s %12.5g ms\n", name, res.SpanSelfMs[name])
		}
		fmt.Printf("  spans: %s\n", res.SpansFile)
	}
	fmt.Printf("  jobs %d, failed %d; b_i probe error p50 %.2f%%, generator lateness max %.3g ms, stragglers %d, unplugs %d, valid %v\n",
		res.Attempted, res.Failed, 100*res.ProbeErrP50, res.LatenessMsMax, res.Stragglers, res.Unplugged, res.Valid)
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// resultSet is what all-workloads mode writes and compare reads.
type resultSet struct {
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Runs    []*result `json:"runs"`
}

// runAll runs every workload reps times untraced and once traced, each run
// in a fresh child process so heap and rusage do not carry over, and
// writes the set to out/results-<seed>.json.
func runAll(seed int64, secs, reps int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	set := resultSet{Seed: seed, Seconds: secs}
	for _, s := range workloads {
		for r := 0; r <= reps; r++ {
			trace := "0"
			if r == reps {
				trace = "1"
			}
			detail := filepath.Join(out, fmt.Sprintf("detail-%d.json", os.Getpid()))
			cmd := exec.Command(self, "--workload", s.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(secs), "--trace", trace, "--out", out, "--detail", detail)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", s.name, r, err)
			}
			b, err := os.ReadFile(detail)
			if err != nil {
				return err
			}
			if err := os.Remove(detail); err != nil {
				return err
			}
			res := &result{}
			if err := json.Unmarshal(b, res); err != nil {
				return fmt.Errorf("%s run %d: reading result: %w", s.name, r, err)
			}
			set.Runs = append(set.Runs, res)
		}
	}
	path := filepath.Join(out, fmt.Sprintf("results-%d.json", seed))
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", path)
	return nil
}

// compareMain prints one row per (workload, end-to-end metric) of
// candidate B against baseline A and returns the exit code: 1 on any
// "worse" row or any failed operation on either side.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var sets [2]resultSet
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	code := 0
	for _, s := range workloads {
		var sides [2][]*result
		for i := range sets {
			for _, r := range sets[i].Runs {
				if r.Workload != s.name || r.Traced {
					continue
				}
				sides[i] = append(sides[i], r)
				if r.Failed > 0 || !r.Correct {
					fmt.Printf("%-15s %-28s FAILED: %d of %d operations in %s\n", s.name, "failed_ops", r.Failed, r.Attempted, args[i])
					code = 1
				}
			}
		}
		if len(sides[0]) == 0 || len(sides[1]) == 0 {
			fmt.Printf("%-15s no untraced runs on one side\n", s.name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			var a, b []float64
			for _, r := range sides[0] {
				a = append(a, r.EndToEnd[m.name])
			}
			for _, r := range sides[1] {
				b = append(b, r.EndToEnd[m.name])
			}
			v := verdict(m, a, b)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-15s %-28s %-12s A %.5g (n=%d)  B %.5g (n=%d)  %+.2f%%  bound %.0f%%\n",
				s.name, m.name, v, median(a), len(a), median(b), len(b), 100*(median(b)/median(a)-1), 100*m.bound)
		}
	}
	return code
}

// verdict judges candidate runs b against baseline runs a on one metric.
// "worse": b's median is worse than a's by more than the bound.
// "unresolved": the spread between either side's quartiles is wider than
// the bound — unless every run of b reads better than every run of a,
// which is "better". Also "better": b's median is better by more than a's
// own spread.
func verdict(m metric, a, b []float64) string {
	sign := 1.0 // positive delta = worse
	if m.better == "higher" {
		sign = -1
	}
	base := median(a)
	delta := sign * (median(b) - base) / base
	iqr := func(v []float64) float64 { return (quantile(v, 0.75) - quantile(v, 0.25)) / base }
	spread := max(iqr(a), iqr(b))
	switch {
	case spread > m.bound:
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	case delta > m.bound:
		return "worse"
	case delta < -iqr(a):
		return "better"
	default:
		return "within bound"
	}
}

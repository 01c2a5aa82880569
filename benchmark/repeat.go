package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload o.repeat times, each as a child process of
// this binary with its own seed (o.seed, o.seed+1, ...), one after the
// other, and prints every metric's median, quartiles and spread (the
// distance between the quartiles as a share of the median) plus each
// run's failed share. This is how the bounds in BENCHMARK.json were set,
// and how a later change tells a moved metric from noise.
func repeatRuns(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		fmt.Fprintf(stdout, "# run %d seed=%d correct=%t attempted=%d failed=%d failed_share=%.6g\n",
			i, seed, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		for n, m := range res.Metrics {
			vals[n] = append(vals[n], m.Value)
			units[n] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# %-40s %14s %14s %14s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	for _, n := range names {
		q1, q3 := quartiles(vals[n])
		med := median(vals[n])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(stdout, "# %-40s %14.6g %14.6g %14.6g %8.4f  %s\n", n, q1, med, q3, spread, units[n])
	}
	for _, n := range names {
		fmt.Fprintf(stdout, "# values %s %v\n", n, vals[n])
	}
	return nil
}

var errNoResult = errors.New("no result line")

// lastResult parses the last non-empty line of a run's output.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "{") {
		return res, errNoResult
	}
	err := json.Unmarshal([]byte(last), &res)
	return res, err
}

// Command stmladder is the repository's end-to-end benchmark. It drives a
// real stmserve server over TCP loopback with one of three checked
// workloads, on both commit engines (ST, the Shavit–Touitou protocol, and
// TL2), and prints one JSON result line. With --trace 1 it instead replays
// the same batches rung by rung through each layer's public entry point
// (see ladder.go) and prints per-layer metrics. See README.md.
//
//	bash benchmark/run.sh --workload kv-pipeline --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh --workload kv-ledger --seed 1 --seconds 30 --repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	stm "github.com/stm-go/stm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stmladder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: kv-pipeline, kv-ledger or kv-churn")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.IntVar(&o.seconds, "seconds", 30, "how long the run measures (whole rounds; at least one per engine)")
	fs.IntVar(&o.trace, "trace", 0, "1: replay the batches rung by rung and print per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 0, "run N times as child processes, seeds seed..seed+N-1, and print each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.repeat < 0 {
		fmt.Fprintln(stderr, "stmladder: --seconds must be at least 1, --trace 0 or 1, --repeat not negative")
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "stmladder:", err)
		return 2
	}
	if o.repeat > 0 {
		if err := repeatRuns(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "stmladder:", err)
			return 1
		}
		return 0
	}
	p := w.make(o.seed)
	if len(p.clients) == 1 {
		// One closed-loop connection has one runnable goroutine at a
		// time: the client waits while the server works. A second P only
		// turns each hand-off into a cross-CPU wake-up, which on a shared
		// guest puts the hypervisor's scheduling into the batch tail.
		runtime.GOMAXPROCS(1)
	}
	fmt.Fprintf(stdout, "# env cpu=%q go=%s gomaxprocs=%d nproc=%d engines=st,tl2 workload=%s seed=%d seconds=%d trace=%d\n",
		cpuModel(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "# workload %s: %s\n", w.name, w.why)
	var res result
	if o.trace == 1 {
		res, err = runLadder(w, p, o.seconds, stdout, stderr)
	} else {
		res, err = runEndToEnd(w, p, o.seconds, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "stmladder:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "stmladder:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var engines = [2]stm.Engine{stm.ST, stm.TL2}

// engineAt orders rounds ST TL2 TL2 ST ST TL2 ..., so neither engine
// always runs first in a pair while the host drifts.
func engineAt(r int) stm.Engine { return engines[(r&1)^((r>>1)&1)] }

// printFloors measures and prints the host floors.
func printFloors(p *plan, stdout io.Writer) (floors, error) {
	f, err := measureFloors(p.clients[0], 500_000, 1000)
	if err != nil {
		return f, fmt.Errorf("host floors: %w", err)
	}
	fmt.Fprintf(stdout, "# floors host.atomic_add_ns=%.3f host.nanotime_ns=%.3f host.echo_rtt_us=%.3f\n",
		f.atomicAddNs, f.nanotimeNs, f.echoRTTUs)
	return f, nil
}

// runEndToEnd runs whole rounds, alternating engines, until seconds have
// passed and each engine has run as many rounds as the other. Each
// engine's rate and latency figures are read over all its measurement
// windows (see roundRun.windows), so that bursts of host noise do not
// move them.
func runEndToEnd(w *workload, p *plan, seconds int, stdout, stderr io.Writer) (result, error) {
	if _, err := printFloors(p, stdout); err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	type agg struct {
		wins              []window
		wpk               []float64
		rounds            int
		attempted, failed int64
	}
	per := map[stm.Engine]*agg{stm.ST: {}, stm.TL2: {}}
	var setups []float64
	start := time.Now()
	for r := 0; r < 2 || r%2 == 1 || time.Since(start) < time.Duration(seconds)*time.Second; r++ {
		eng := engineAt(r)
		rr := runRound(p, eng, stm.ObsCounters)
		if rr.err != nil {
			return res, fmt.Errorf("%s round %d: %w", eng, r, rr.err)
		}
		if rr.wrong != nil {
			res.Correct = false
			fmt.Fprintf(stderr, "stmladder: %s round %d: %v\n", eng, r, rr.wrong)
		}
		for _, c := range rr.clients {
			if c.err != nil {
				fmt.Fprintf(stderr, "stmladder: %s round %d: connection ended: %v\n", eng, r, c.err)
			}
		}
		a := per[eng]
		a.wins = append(a.wins, rr.windows()...)
		a.wpk = append(a.wpk, rr.wordsPerKey)
		a.rounds++
		a.attempted += rr.attempted()
		a.failed += rr.failed()
		setups = append(setups, rr.setup.Seconds())
	}
	for _, eng := range engines {
		a, sfx := per[eng], "."+eng.String()
		var rate, p50, p99 []float64
		for _, win := range a.wins {
			rate = append(rate, win.rate)
			p50 = append(p50, win.p50)
			p99 = append(p99, win.p99)
		}
		// A window's 99th percentile is what a stall of the host moves
		// first, and such stalls only ever slow a window down: the p99 is
		// read at the windows' first quartile, the rest at their median.
		r, l50, l99 := median(rate), median(p50), quantile(p99, 0.25)
		res.Metrics["cmds_per_s"+sfx] = metric{r, "1/s"}
		res.Metrics["batch_p50_us"+sfx] = metric{l50, "us"}
		res.Metrics["batch_p99_us"+sfx] = metric{l99, "us"}
		res.Metrics["words_per_key"+sfx] = metric{median(a.wpk), "words"}
		res.Attempted += a.attempted
		res.Failed += a.failed
		fmt.Fprintf(stdout, "# %s engine=%s rounds=%d windows=%d attempted=%d failed=%d cmds_per_s=%.1f batch_p50_us=%.2f batch_p99_us=%.2f words_per_key=%.2f\n",
			w.name, eng, a.rounds, len(a.wins), a.attempted, a.failed, r, l50, l99, median(a.wpk))
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	return res, nil
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

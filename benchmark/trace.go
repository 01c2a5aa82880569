package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	stm "github.com/stm-go/stm"
)

// runLadder runs whole ladder passes, at least one, and starts another
// only if it should end within seconds of the start. A pass measures the
// host floors, then every rung on each engine; each per-layer metric is
// the median of its per-pass values.
func runLadder(w *workload, p *plan, seconds int, stdout, stderr io.Writer) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	vals := map[string][]float64{}
	units := map[string]string{}
	put := func(name, unit string, v float64) {
		vals[name] = append(vals[name], v)
		units[name] = unit
	}
	dp := newDSPlan(p)
	start, budget := time.Now(), time.Duration(seconds)*time.Second
	var last time.Duration // how long the last pass took
	for pass := 0; pass == 0 || time.Since(start)+last <= budget; pass++ {
		t0 := time.Now()
		f, err := printFloors(p, stdout)
		if err != nil {
			return res, err
		}
		put("host.atomic_add_ns", "ns", f.atomicAddNs)
		put("host.nanotime_ns", "ns", f.nanotimeNs)
		put("host.echo_rtt_us", "us", f.echoRTTUs)
		for e := 0; e < 2; e++ {
			eng := engineAt(2*pass + e)
			lp, err := ladderPass(p, dp, eng)
			if err != nil {
				return res, fmt.Errorf("%s ladder: %w", eng, err)
			}
			if lp.wrong != nil {
				res.Correct = false
				fmt.Fprintf(stderr, "stmladder: %s ladder: %v\n", eng, lp.wrong)
			}
			res.Attempted += lp.attempted
			res.Failed += lp.failed
			fmt.Fprintf(stdout, "# %s engine=%s pass=%d attempted=%d failed=%d\n", w.name, eng, pass, lp.attempted, lp.failed)
			for _, m := range lp.metrics {
				put(m.name, m.unit, m.v)
			}
		}
		last = time.Since(t0)
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Metrics[n] = metric{median(vals[n]), units[n]}
		fmt.Fprintf(stdout, "# %s %s=%.4g %s (samples=%d)\n", w.name, n, median(vals[n]), units[n], len(vals[n]))
	}
	return res, nil
}

type namedValue struct {
	name, unit string
	v          float64
}

// passResult is one engine's rungs in one pass.
type passResult struct {
	metrics           []namedValue
	attempted, failed int64
	wrong             error
}

func ladderPass(p *plan, dp *dsPlan, eng stm.Engine) (lp passResult, err error) {
	sfx := "." + eng.String()
	add := func(name, unit string, v float64) {
		lp.metrics = append(lp.metrics, namedValue{name, unit, v})
	}

	tcp, err := newTCPRung(p, eng)
	if err != nil {
		return lp, err
	}
	mem := tcp.srv.Memory()
	st0, c0 := mem.Stats(), tcp.srv.Metrics().BatchCommands.Total()
	feedOn, err := newFeedRung(p, eng, stm.ObsCounters)
	if err != nil {
		return lp, err
	}
	feedOff, err := newFeedRung(p, eng, stm.ObsOff)
	if err != nil {
		return lp, err
	}
	ds, err := newDSRung(p, dp, eng)
	if err != nil {
		return lp, err
	}
	dtx, err := newDTxRung(p, eng, ds)
	if err != nil {
		return lp, err
	}
	lats, err := replay(p, []rung{tcp, feedOn, feedOff, ds, dtx})
	if err != nil {
		return lp, err
	}
	st := statsDelta(mem.Stats(), st0)
	commits := tcp.srv.Metrics().BatchCommands.Total() - c0
	lp.attempted = p.ops()
	for _, f := range tcp.failed {
		lp.failed += f
	}
	wrong, err := tcp.close()
	if err != nil {
		return lp, err
	}
	lp.wrong = errors.Join(wrong, feedOn.close(), feedOff.close())
	words := ds.s.mem.WordsAllocated()
	addNs, loadNs, err := coreNs(eng, 200_000)
	if err != nil {
		return lp, err
	}

	rtt, feed, off := durMedianUs(lats[0]), durMedianUs(lats[1]), durMedianUs(lats[2])
	dsUs, dtxUs := durMedianUs(lats[3]), durMedianUs(lats[4])
	add("net.rtt_us"+sfx, "us", rtt)
	add("net.self_us"+sfx, "us", rtt-feed)
	add("stmserve.feed_us"+sfx, "us", feed)
	add("stmserve.self_us"+sfx, "us", feed-dsUs)
	add("stmserve.cmds_per_commit"+sfx, "cmd", float64(lp.attempted)/float64(max(commits, 1)))
	add("stmobs.counters_overhead_pct"+sfx, "%", 100*(feed-off)/off)
	add("stmds.batch_us"+sfx, "us", dsUs)
	add("stmds.self_us"+sfx, "us", dsUs-dtxUs)
	add("stmds.words_allocated", "words", float64(words))
	add("dtx.batch_us"+sfx, "us", dtxUs)
	add("dtx.footprint_words", "words", meanTimedFootprint(p, ds.fps))
	add("core.add_ns"+sfx, "ns", addNs)
	add("core.var_load_ns"+sfx, "ns", loadNs)

	kcmd := float64(lp.attempted) / 1000
	add("core.attempts_per_commit"+sfx, "ratio", float64(st.Attempts)/float64(max(st.Commits, 1)))
	add("core.aborts_per_kcmd"+sfx, "1/kcmd", float64(st.Failures)/kcmd)
	if eng == stm.ST {
		add("core.helps_per_kcmd.st", "1/kcmd", float64(st.Helps)/kcmd)
		add("core.abort.st-conflict_per_kcmd", "1/kcmd", float64(st.STConflictAborts)/kcmd)
		add("core.abort.st-helped_per_kcmd", "1/kcmd", float64(st.STHelpedAborts)/kcmd)
	} else {
		add("core.abort.tl2-read_per_kcmd", "1/kcmd", float64(st.TL2ReadAborts)/kcmd)
		add("core.abort.tl2-lock_per_kcmd", "1/kcmd", float64(st.TL2LockAborts)/kcmd)
		add("core.abort.tl2-validate_per_kcmd", "1/kcmd", float64(st.TL2ValidateAborts)/kcmd)
		add("core.tl2_readonly_share", "ratio", float64(st.TL2ReadOnlyCommits)/float64(max(st.Commits, 1)))
	}
	return lp, nil
}

// meanTimedFootprint is the mean footprint of the timed batches.
func meanTimedFootprint(p *plan, fps [][]int) float64 {
	var sum, n float64
	for _, f := range fps {
		for _, w := range f[p.warm:] {
			sum += float64(w)
			n++
		}
	}
	return sum / max(n, 1)
}

package main

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	stm "github.com/stm-go/stm"
)

// The checker tests render the reply stream a correct server would send
// for a batch, check that it passes, then plant one fault and check that
// it is caught.

// render appends the RESP form of one reply.
func render(dst []byte, kind byte, n int64, b []byte) []byte {
	switch kind {
	case ':', '*':
		return append(append(append(dst, kind), strconv.FormatInt(n, 10)...), '\r', '\n')
	case '$':
		if n < 0 {
			return append(dst, "$-1\r\n"...)
		}
		dst = append(append(append(dst, '$'), strconv.Itoa(len(b))...), '\r', '\n')
		return append(append(dst, b...), '\r', '\n')
	}
	return append(append(append(dst, kind), b...), '\r', '\n')
}

func renderWant(dst []byte, e expect) []byte { return render(dst, e.kind, e.n, e.b) }

// correctStream renders what a correct server replies to b. Ledger
// balances are not predicted per command; transfers reply 0 and audits
// reply balances that sum to the plan's total.
func correctStream(p *plan, b *batch) []byte {
	var out []byte
	for _, u := range b.units {
		if !u.multi {
			out = renderWant(out, u.cmds[0].want)
			continue
		}
		out = renderWant(out, wantOK)
		for range u.cmds {
			out = renderWant(out, wantQueued)
		}
		out = render(out, '*', int64(len(u.cmds)), nil)
		for i, c := range u.cmds {
			switch {
			case u.audit:
				bal := p.auditSum / int64(len(u.cmds))
				if i == 0 {
					bal += p.auditSum % int64(len(u.cmds))
				}
				out = render(out, '$', 0, []byte(strconv.FormatInt(bal, 10)))
			case c.want.anyInt:
				out = render(out, ':', 0, nil)
			default:
				out = renderWant(out, c.want)
			}
		}
	}
	return out
}

func parseStream(t *testing.T, b *batch, stream []byte) []reply {
	t.Helper()
	rs, err := newReplyReader(bytes.NewReader(stream)).read(b.nreplies)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return rs
}

// findBatch returns the first batch of the plan's first client holding a
// command that pick accepts, and that command's unit and index.
func findBatch(t *testing.T, p *plan, pick func(u *unit, c *cmd) bool) (*batch, int, int) {
	t.Helper()
	for i := range p.clients[0] {
		b := &p.clients[0][i]
		for ui := range b.units {
			for ci := range b.units[ui].cmds {
				if pick(&b.units[ui], &b.units[ui].cmds[ci]) {
					return b, ui, ci
				}
			}
		}
	}
	t.Fatal("no such command in the plan")
	return nil, 0, 0
}

// plant renders b's correct stream with the reply of command (ui, ci)
// replaced by the rendering of bad.
func plant(p *plan, b *batch, ui, ci int, bad []byte) []byte {
	saved := b.units[ui].cmds[ci].want
	b.units[ui].cmds[ci].want = expect{kind: 'X'} // marker, rendered as "X\r\n"
	s := correctStream(p, b)
	b.units[ui].cmds[ci].want = saved
	return bytes.Replace(s, []byte("X\r\n"), bad, 1)
}

func TestPipelineCheckerCatchesStaleRead(t *testing.T) {
	p := planPipeline(7)
	b, ui, ci := findBatch(t, p, func(_ *unit, c *cmd) bool {
		return c.verb == vGet && !bytes.HasSuffix(c.want.b, []byte("#v0"))
	})
	if n := checkBatch(p, b, parseStream(t, b, correctStream(p, b))); n != 0 {
		t.Fatalf("correct stream: %d failures", n)
	}
	c := b.units[ui].cmds[ci]
	stale := pipeValStale(c.key)
	if n := checkBatch(p, b, parseStream(t, b, plant(p, b, ui, ci, render(nil, '$', 0, stale)))); n != 1 {
		t.Fatalf("stale read: %d failures, want 1", n)
	}
	other := pipeVal(0, 0)
	if string(c.key) == string(pipeKey(0)) {
		other = pipeVal(1, 0)
	}
	if n := checkBatch(p, b, parseStream(t, b, plant(p, b, ui, ci, render(nil, '$', 0, other)))); n != 1 {
		t.Fatalf("another key's value: %d failures, want 1", n)
	}
	if n := checkBatch(p, b, parseStream(t, b, plant(p, b, ui, ci, []byte("-ERR keyspace full\r\n")))); n != 1 {
		t.Fatalf("error reply: %d failures, want 1", n)
	}
}

// pipeValStale is the value a key held before any SET: version 0.
func pipeValStale(key []byte) []byte {
	i, _ := strconv.Atoi(string(key[2:]))
	return pipeVal(i, 0)
}

func TestLedgerCheckerCatchesBrokenAudit(t *testing.T) {
	p := planLedger(7)
	b, _, _ := findBatch(t, p, func(u *unit, _ *cmd) bool { return u.audit })
	good := correctStream(p, b)
	if n := checkBatch(p, b, parseStream(t, b, good)); n != 0 {
		t.Fatalf("correct stream: %d failures", n)
	}
	// An audit that sees one transfer half applied sums to the wrong total.
	bal := []byte(strconv.FormatInt(p.auditSum/ledgerAccounts, 10))
	torn := []byte(strconv.FormatInt(p.auditSum/ledgerAccounts-5, 10))
	s := bytes.Replace(good, render(nil, '$', 0, bal), render(nil, '$', 0, torn), 1)
	if bytes.Equal(s, good) {
		t.Fatal("no balance to tear")
	}
	if n := checkBatch(p, b, parseStream(t, b, s)); n != 1 {
		t.Fatalf("torn audit: %d failures, want 1", n)
	}
	// A transfer whose EXEC was aborted.
	tb, _, _ := findBatch(t, p, func(u *unit, _ *cmd) bool { return u.multi && !u.audit })
	s = bytes.Replace(correctStream(p, tb), []byte("*2\r\n:0\r\n:0\r\n"),
		[]byte("-EXECABORT Transaction discarded because of previous errors\r\n"), 1)
	rs, err := newReplyReader(bytes.NewReader(s)).read(tb.nreplies)
	if err == nil {
		if n := checkBatch(p, tb, rs); n == 0 {
			t.Fatalf("EXECABORT passed the checker")
		}
	} else if !errors.Is(err, errShort) {
		t.Fatalf("EXECABORT stream: %v", err)
	}
}

func TestLedgerFinalStateCatchesLostTransfer(t *testing.T) {
	p := planLedger(7)
	var good []byte
	for _, c := range p.finals {
		good = renderWant(good, c.want)
	}
	fb := &p.fin
	if err := checkFinals(p, parseStream(t, fb, good)); err != nil {
		t.Fatalf("correct final state: %v", err)
	}
	// Lose one transfer: its debit landed, its credit did not.
	var bad []byte
	for i, c := range p.finals {
		w := c.want
		if i == 3 {
			v, _ := strconv.ParseInt(string(w.b), 10, 64)
			w = wantBulk([]byte(strconv.FormatInt(v-17, 10)))
		}
		bad = renderWant(bad, w)
	}
	if err := checkFinals(p, parseStream(t, fb, bad)); err == nil {
		t.Fatal("lost transfer passed the final-state check")
	}
}

func TestChurnCheckerCatchesFaults(t *testing.T) {
	p := planChurn(7)
	b, ui, ci := findBatch(t, p, func(_ *unit, c *cmd) bool { return c.verb == vDel })
	if n := checkBatch(p, b, parseStream(t, b, correctStream(p, b))); n != 0 {
		t.Fatalf("correct stream: %d failures", n)
	}
	if n := checkBatch(p, b, parseStream(t, b, plant(p, b, ui, ci, []byte(":0\r\n")))); n != 1 {
		t.Fatalf("DEL of the oldest key missed: %d failures, want 1", n)
	}
	b, ui, ci = findBatch(t, p, func(_ *unit, c *cmd) bool { return c.verb == vGet })
	if n := checkBatch(p, b, parseStream(t, b, plant(p, b, ui, ci, []byte("$-1\r\n")))); n != 1 {
		t.Fatalf("GET of a live key returned nil: %d failures, want 1", n)
	}
	// QPOP out of FIFO order: the second element popped from q0 comes
	// out in place of the first.
	type pop struct {
		b  *batch
		ui int
	}
	var pops []pop
	for i := range p.clients[0] {
		bb := &p.clients[0][i]
		for u := range bb.units {
			if c := bb.units[u].cmds[0]; c.verb == vQPop && c.want.n >= 0 && string(c.key) == "q0" && len(pops) < 2 {
				pops = append(pops, pop{bb, u})
			}
		}
	}
	if len(pops) < 2 {
		t.Fatal("plan has fewer than two served pops of q0")
	}
	first, second := pops[0], pops[1]
	next := second.b.units[second.ui].cmds[0].want.b
	s := plant(p, first.b, first.ui, 0, render(nil, '$', 0, next))
	if n := checkBatch(p, first.b, parseStream(t, first.b, s)); n != 1 {
		t.Fatalf("QPOP out of FIFO order: %d failures, want 1", n)
	}
}

func TestReplyReaderReportsShortStream(t *testing.T) {
	p := planPipeline(3)
	b := &p.clients[0][0]
	s := correctStream(p, b)
	_, err := newReplyReader(bytes.NewReader(s[:len(s)-3])).read(b.nreplies)
	if !errors.Is(err, errShort) {
		t.Fatalf("truncated stream: got %v, want errShort", err)
	}
}

// TestRoundsAgainstServer runs one round of every workload on each engine
// against a real server: the checkers accept a correct server.
func TestRoundsAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full rounds")
	}
	for _, w := range workloads {
		p := w.make(11)
		for _, eng := range engines {
			rr := runRound(p, eng, stm.ObsCounters)
			if rr.err != nil || rr.wrong != nil {
				t.Fatalf("%s/%s: err=%v wrong=%v", w.name, eng, rr.err, rr.wrong)
			}
			if f := rr.failed(); f != 0 {
				t.Fatalf("%s/%s: %d failed operations", w.name, eng, f)
			}
			if rr.attempted() != p.ops() {
				t.Fatalf("%s/%s: attempted %d, plan has %d", w.name, eng, rr.attempted(), p.ops())
			}
		}
	}
}

// TestLadderPass runs one ladder pass of the two-connection workload: every
// rung replays the batches, the replies and final states check out, and
// every per-layer metric of the engine is reported.
func TestLadderPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full ladder pass")
	}
	p := planLedger(5)
	lp, err := ladderPass(p, newDSPlan(p), stm.TL2)
	if err != nil {
		t.Fatal(err)
	}
	if lp.wrong != nil || lp.failed != 0 {
		t.Fatalf("wrong=%v failed=%d", lp.wrong, lp.failed)
	}
	names := map[string]bool{}
	for _, m := range lp.metrics {
		names[m.name] = true
	}
	for _, n := range []string{"net.rtt_us.tl2", "stmserve.feed_us.tl2", "stmds.batch_us.tl2", "dtx.batch_us.tl2", "core.tl2_readonly_share"} {
		if !names[n] {
			t.Errorf("metric %s missing", n)
		}
	}
}

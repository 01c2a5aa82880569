package main

import (
	"fmt"
	"strconv"
)

// The checkers judge the server's replies against the workload's own model
// (kv-pipeline, kv-churn) or property (kv-ledger), never against recorded
// server output. Each wrong reply counts as one failed operation.

// checkBatch walks the replies to one batch and returns how many of its
// commands failed: an error reply, a reply of the wrong shape, or a value
// the model does not predict. In a MULTI/EXEC group a bad MULTI, QUEUED or
// EXEC reply fails that command; a failed EXEC fails every command it
// carried. An audit whose balances do not sum to auditSum fails its EXEC.
func checkBatch(p *plan, b *batch, rs []reply) (failed int) {
	i := 0
	next := func() reply {
		if i >= len(rs) {
			return reply{}
		}
		r := rs[i]
		i++
		return r
	}
	for _, u := range b.units {
		if !u.multi {
			if !u.cmds[0].want.matches(next()) {
				failed++
			}
			continue
		}
		if !wantOK.matches(next()) {
			failed++
		}
		for range u.cmds {
			if !wantQueued.matches(next()) {
				failed++
			}
		}
		hdr := next()
		if hdr.kind != '*' || hdr.n != int64(len(u.cmds)) {
			// Without the array header the element replies cannot be
			// told apart; every command of the group fails with the EXEC.
			failed += 1 + len(u.cmds)
			if hdr.kind == '*' && hdr.n > 0 {
				i += int(hdr.n)
			}
			continue
		}
		if u.audit {
			if _, ok := auditSum(rs[i:i+len(u.cmds)], p.auditSum); !ok {
				failed++
			}
			i += len(u.cmds)
			continue
		}
		for _, c := range u.cmds {
			if !c.want.matches(next()) {
				failed++
			}
		}
	}
	return failed
}

// auditSum sums an audit's balances; ok is false unless every balance is
// an integer bulk and the sum is want.
func auditSum(rs []reply, want int64) (sum int64, ok bool) {
	for _, r := range rs {
		if r.kind != '$' || r.n < 0 {
			return sum, false
		}
		v, err := strconv.ParseInt(string(r.b), 10, 64)
		if err != nil {
			return sum, false
		}
		sum += v
	}
	return sum, sum == want
}

// checkFinals compares the replies to the plan's final GETs.
func checkFinals(p *plan, rs []reply) error {
	if len(rs) != len(p.finals) {
		return fmt.Errorf("final state: %d replies for %d keys", len(rs), len(p.finals))
	}
	for i, c := range p.finals {
		if !c.want.matches(rs[i]) {
			return fmt.Errorf("final state: key %s holds %v, model says %s", c.key, rs[i], describe(c.want))
		}
	}
	return nil
}

func describe(e expect) string {
	switch {
	case e.kind == '$' && e.n < 0:
		return "nil"
	case e.kind == ':':
		return ":" + strconv.FormatInt(e.n, 10)
	}
	return fmt.Sprintf("%c%q", e.kind, e.b)
}

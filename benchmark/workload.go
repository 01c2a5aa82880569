package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// Command verbs the workloads send.
const (
	vGet = iota
	vSet
	vDel
	vIncrBy
	vQPush
	vQPop
)

var verbNames = [...][]byte{
	vGet:    []byte("GET"),
	vSet:    []byte("SET"),
	vDel:    []byte("DEL"),
	vIncrBy: []byte("INCRBY"),
	vQPush:  []byte("QPUSH"),
	vQPop:   []byte("QPOP"),
}

// expect is the reply the model predicts for one command.
type expect struct {
	kind   byte   // '+', ':' or '$'
	n      int64  // ':' value; -1 with '$' for a nil bulk
	b      []byte // '+' text or '$' payload
	anyInt bool   // ':' whose value the model leaves open (INCRBY under concurrency)
}

var (
	wantOK     = expect{kind: '+', b: []byte("OK")}
	wantQueued = expect{kind: '+', b: []byte("QUEUED")}
	wantNil    = expect{kind: '$', n: -1}
	wantAnyInt = expect{kind: ':', anyInt: true}
)

func wantBulk(b []byte) expect { return expect{kind: '$', n: int64(len(b)), b: b} }
func wantInt(n int64) expect   { return expect{kind: ':', n: n} }

func (e expect) matches(r reply) bool {
	if r.kind != e.kind {
		return false
	}
	switch e.kind {
	case ':':
		return e.anyInt || r.n == e.n
	case '$':
		return r.n == e.n && (e.n < 0 || string(r.b) == string(e.b))
	}
	return string(r.b) == string(e.b)
}

// cmd is one data command and the reply the workload's model expects.
type cmd struct {
	verb  int
	key   []byte // key, or queue name for QPUSH/QPOP
	val   []byte // SET/QPUSH value
	delta int64  // INCRBY delta
	want  expect
}

func (c *cmd) writes() bool { return c.verb != vGet }

// unit is either one plain command or one MULTI/EXEC group.
type unit struct {
	multi bool
	audit bool // a ledger audit: its GETs must sum to auditSum
	cmds  []cmd
}

// batch is one pipelined write to the server: the units in order and
// their RESP encoding.
type batch struct {
	units    []unit
	wire     []byte
	ncmds    int // commands on the wire, MULTI and EXEC included
	nreplies int // top-level replies the server sends back
	writes   bool
}

func (b *batch) seal() {
	b.wire, b.ncmds, b.nreplies = b.wire[:0], 0, 0
	for i := range b.units {
		u := &b.units[i]
		if u.multi {
			b.wire = appendCommand(b.wire, []byte("MULTI"))
			b.ncmds += 2
			b.nreplies += 2
		}
		for j := range u.cmds {
			c := &u.cmds[j]
			b.writes = b.writes || c.writes()
			switch c.verb {
			case vGet, vDel, vQPop:
				b.wire = appendCommand(b.wire, verbNames[c.verb], c.key)
			case vSet, vQPush:
				b.wire = appendCommand(b.wire, verbNames[c.verb], c.key, c.val)
			case vIncrBy:
				b.wire = appendCommand(b.wire, verbNames[c.verb], c.key, strconv.AppendInt(nil, c.delta, 10))
			}
			b.ncmds++
			b.nreplies++
		}
		if u.multi {
			b.wire = appendCommand(b.wire, []byte("EXEC"))
		}
	}
}

// plan is everything one round sends: the preload, each client's batch
// sequence, and the state the keyspace must hold once every batch has
// committed. A round always sends all of it, so two rounds attempt
// exactly the same operations.
type plan struct {
	preload  []cmd     // SETs sent before the round
	clients  [][]batch // per connection, in send order
	warm     int       // leading batches of each client that are not timed
	finals   []cmd     // GETs with the final value each key must hold
	pre, fin batch     // preload and finals encoded as batches
	liveKeys int       // keys live at the end of the round
	auditSum int64     // ledger: what every audit must sum to
}

// seal encodes the preload and the final-state reads once, so set-up
// time does not include the client's encoding work.
func (p *plan) seal() *plan {
	p.pre.units, p.fin.units = plainUnits(p.preload), plainUnits(p.finals)
	p.pre.seal()
	p.fin.seal()
	return p
}

// ops returns the commands the round attempts, preload excluded.
func (p *plan) ops() int64 {
	var n int64
	for _, bs := range p.clients {
		for i := range bs {
			n += int64(bs[i].ncmds)
		}
	}
	return n
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	make func(seed int64) *plan
}

var workloads = []workload{
	{"kv-pipeline", "one connection, 16-deep batches of 95% GET / 5% SET over 4096 preloaded keys: DTx per-read revalidation and Map probes dominate", planPipeline},
	{"kv-ledger", "two connections of MULTI/EXEC transfers plus 32-account audits: cross-client conflicts, aborts, re-execution and ST helping", planLedger},
	{"kv-churn", "one connection sliding a 2048-key window with SET/DEL plus 4 queues: Map tombstones, same-capacity rebuilds and the never-freeing allocator", planChurn},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Workload sizes. Each round's batch count is fixed, so a round repeats the
// same operations and words_per_key is read after the same operation count
// every time.
const (
	pipeKeys    = 4096 // below the 4096-hint table's growth threshold
	pipeDepth   = 16
	pipeWarm    = 200
	pipeBatches = 6200

	ledgerAccounts = 32
	ledgerClients  = 2
	ledgerGroups   = 4 // MULTI/EXEC groups per batch
	ledgerInitial  = 1000000
	ledgerWarm     = 60
	ledgerBatches  = 1060

	churnLive    = 2048
	churnQueues  = 4
	churnQueueHi = 256 // the generator never lets a queue pass this length
	churnWarm    = 200
	churnBatches = 18000
)

func pipeKey(i int) []byte { return []byte(fmt.Sprintf("p:%04d", i)) }

// pipeVal carries the key and its version, so a reply from the wrong key
// or a stale version cannot match the model.
func pipeVal(i, ver int) []byte { return []byte(fmt.Sprintf("p:%04d#v%d", i, ver)) }

// planPipeline: one connection, 16 commands a batch, 95% GET and 5% SET,
// keys uniform over the preloaded 4096. The model is a version per key.
func planPipeline(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{warm: pipeWarm, liveKeys: pipeKeys}
	ver := make([]int, pipeKeys)
	for i := 0; i < pipeKeys; i++ {
		p.preload = append(p.preload, cmd{verb: vSet, key: pipeKey(i), val: pipeVal(i, 0), want: wantOK})
	}
	bs := make([]batch, pipeBatches)
	for n := range bs {
		cs := make([]cmd, pipeDepth)
		for j := range cs {
			k := rng.Intn(pipeKeys)
			if rng.Intn(100) < 5 {
				ver[k]++
				cs[j] = cmd{verb: vSet, key: pipeKey(k), val: pipeVal(k, ver[k]), want: wantOK}
			} else {
				cs[j] = cmd{verb: vGet, key: pipeKey(k), want: wantBulk(pipeVal(k, ver[k]))}
			}
		}
		bs[n].units = plainUnits(cs)
		bs[n].seal()
	}
	p.clients = [][]batch{bs}
	for i := 0; i < pipeKeys; i++ {
		p.finals = append(p.finals, cmd{verb: vGet, key: pipeKey(i), want: wantBulk(pipeVal(i, ver[i]))})
	}
	return p.seal()
}

func plainUnits(cs []cmd) []unit {
	us := make([]unit, len(cs))
	for i := range cs {
		us[i] = unit{cmds: cs[i : i+1]}
	}
	return us
}

func acctKey(i int) []byte { return []byte(fmt.Sprintf("acct:%02d", i)) }

// planLedger: two connections, each batch 4 MULTI/EXEC groups. Every 16th
// group is an audit reading all 32 accounts; the rest move 1..100 units
// between two distinct accounts with a pair of INCRBYs. INCRBY commutes,
// so the final balances are the initial ones plus the net of every
// transfer sent, whatever order the two connections' commits took.
func planLedger(seed int64) *plan {
	p := &plan{warm: ledgerWarm, liveKeys: ledgerAccounts, auditSum: ledgerAccounts * ledgerInitial}
	init := []byte(strconv.Itoa(ledgerInitial))
	for i := 0; i < ledgerAccounts; i++ {
		p.preload = append(p.preload, cmd{verb: vSet, key: acctKey(i), val: init, want: wantOK})
	}
	net := make([]int64, ledgerAccounts)
	for c := 0; c < ledgerClients; c++ {
		rng := rand.New(rand.NewSource(seed*ledgerClients + int64(c)))
		bs := make([]batch, ledgerBatches)
		g := 0
		for n := range bs {
			us := make([]unit, ledgerGroups)
			for j := range us {
				if g%16 == 15 {
					cs := make([]cmd, ledgerAccounts)
					for a := range cs {
						cs[a] = cmd{verb: vGet, key: acctKey(a)}
					}
					us[j] = unit{multi: true, audit: true, cmds: cs}
				} else {
					a := rng.Intn(ledgerAccounts)
					b := (a + 1 + rng.Intn(ledgerAccounts-1)) % ledgerAccounts
					x := int64(1 + rng.Intn(100))
					net[a] -= x
					net[b] += x
					us[j] = unit{multi: true, cmds: []cmd{
						{verb: vIncrBy, key: acctKey(a), delta: -x, want: wantAnyInt},
						{verb: vIncrBy, key: acctKey(b), delta: x, want: wantAnyInt},
					}}
				}
				g++
			}
			bs[n].units = us
			bs[n].seal()
		}
		p.clients = append(p.clients, bs)
	}
	for i := 0; i < ledgerAccounts; i++ {
		bal := []byte(strconv.FormatInt(ledgerInitial+net[i], 10))
		p.finals = append(p.finals, cmd{verb: vGet, key: acctKey(i), want: wantBulk(bal)})
	}
	return p.seal()
}

// churnKey names the i-th key the churn workload ever inserts. The names
// do not depend on the seed, so every seed probes the same slots and the
// table rebuilds fall after the same inserts.
func churnKey(i int) []byte { return []byte(fmt.Sprintf("c:%07d", i)) }

func churnVal(i int, tag int64) []byte { return []byte(fmt.Sprintf("c:%07d#%d", i, tag)) }

// planChurn: one connection, 8 commands a batch over a sliding window of
// 2048 live keys: SET two fresh keys, DEL the two oldest, GET two live
// keys, and QPUSH/QPOP on 4 named queues. The model is the window and the
// queue contents.
func planChurn(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	tag := rng.Int63n(1 << 30)
	p := &plan{warm: churnWarm, liveKeys: churnLive}
	for i := 0; i < churnLive; i++ {
		p.preload = append(p.preload, cmd{verb: vSet, key: churnKey(i), val: churnVal(i, tag), want: wantOK})
	}
	lo, hi := 0, churnLive // live window [lo, hi)
	var queues [churnQueues][][]byte
	qname := func(i int) []byte { return []byte("q" + strconv.Itoa(i)) }
	get := func() cmd {
		k := lo + rng.Intn(hi-lo)
		return cmd{verb: vGet, key: churnKey(k), want: wantBulk(churnVal(k, tag))}
	}
	set := func() cmd {
		c := cmd{verb: vSet, key: churnKey(hi), val: churnVal(hi, tag), want: wantOK}
		hi++
		return c
	}
	del := func() cmd {
		c := cmd{verb: vDel, key: churnKey(lo), want: wantInt(1)}
		lo++
		return c
	}
	msg := 0
	bs := make([]batch, churnBatches)
	for n := range bs {
		cs := make([]cmd, 0, 8)
		cs = append(cs, set(), set(), get(), del(), del(), get())
		qi := rng.Intn(churnQueues)
		for len(queues[qi]) >= churnQueueHi {
			qi = (qi + 1) % churnQueues
		}
		v := []byte(fmt.Sprintf("m%d.%d", msg, tag))
		msg++
		queues[qi] = append(queues[qi], v)
		cs = append(cs, cmd{verb: vQPush, key: qname(qi), val: v, want: wantInt(int64(len(queues[qi])))})
		qj := rng.Intn(churnQueues)
		if len(queues[qj]) == 0 {
			cs = append(cs, cmd{verb: vQPop, key: qname(qj), want: wantNil})
		} else {
			cs = append(cs, cmd{verb: vQPop, key: qname(qj), want: wantBulk(queues[qj][0])})
			queues[qj] = queues[qj][1:]
		}
		bs[n].units = plainUnits(cs)
		bs[n].seal()
	}
	p.clients = [][]batch{bs}
	for k := lo - 2; k < hi; k++ {
		w := wantBulk(churnVal(k, tag))
		if k < lo {
			w = wantNil
		}
		p.finals = append(p.finals, cmd{verb: vGet, key: churnKey(k), want: w})
	}
	return p.seal()
}

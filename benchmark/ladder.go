package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
	"github.com/stm-go/stm/stmserve"
)

// The traced run replays a round's batches rung by rung, each rung
// through one layer's public entry point with the same number of clients:
//
//	net       TCP round trip to a live stmserve server
//	stmserve  Session.Feed into io.Discard (engine observability at
//	          counters, and again at off)
//	stmds     the batch's commands as one Memory.Atomically over
//	          stmds.Map/Queue Tx forms, with 9-word codecs like the server's
//	dtx       one Memory.Atomically reading as many distinct words as the
//	          stmds transaction's DTx.Footprint()
//	core      single-word Memory.Add and Var.Load
//
// Every batch-replaying rung keeps its own copy of the state, and all of
// them advance through the batches together, a chunk at a time: chunk k
// runs on every rung before chunk k+1 runs on any. Host noise on this
// scale of seconds then lands on every rung alike, so the rungs can be
// compared. A layer's self time is its rung's median batch time minus the
// median of the rung below it. Every time is taken around calls into the
// program; nothing inside the program is instrumented.

// fixed64 is a 64-byte string in 9 words (a length word, then the bytes
// eight to a word), the same width as the server's key and value codecs.
type fixed64 struct {
	n byte
	b [64]byte
}

func toFixed(p []byte) (f fixed64) {
	f.n = byte(copy(f.b[:], p))
	return f
}

type fixedCodec struct{}

func (fixedCodec) Words() int { return 9 }

func (fixedCodec) Encode(v fixed64, dst []uint64) {
	dst[0] = uint64(v.n)
	for w := 0; w < 8; w++ {
		dst[1+w] = binary.LittleEndian.Uint64(v.b[8*w:])
	}
}

func (fixedCodec) Decode(src []uint64) (v fixed64) {
	v.n = byte(min(src[0], 64))
	for w := 0; w < 8; w++ {
		binary.LittleEndian.PutUint64(v.b[8*w:], src[1+w])
	}
	return v
}

// dsOp is one command in the stmds rung's form: key and value already in
// codec form, the queue already resolved. Turning wire bytes into these is
// the server's work, so the rung does it before timing anything.
type dsOp struct {
	verb  int
	k, v  fixed64
	delta int64
	q     int // index into dsState.queues
}

// dsPlan is a plan's batches as dsOps, per client and batch, plus the
// queue names in the order dsOp.q counts them. It does not depend on the
// engine, so one serves every pass.
type dsPlan struct {
	ops    [][][]dsOp
	queues []string
}

func newDSPlan(p *plan) *dsPlan {
	dp := &dsPlan{}
	qi := map[string]int{}
	for _, bs := range p.clients {
		cops := make([][]dsOp, len(bs))
		for j := range bs {
			for _, u := range bs[j].units {
				for _, c := range u.cmds {
					op := dsOp{verb: c.verb, k: toFixed(c.key), v: toFixed(c.val), delta: c.delta}
					if c.verb == vQPush || c.verb == vQPop {
						i, ok := qi[string(c.key)]
						if !ok {
							i = len(dp.queues)
							qi[string(c.key)] = i
							dp.queues = append(dp.queues, string(c.key))
						}
						op.q = i
					}
					cops[j] = append(cops[j], op)
				}
			}
		}
		dp.ops = append(dp.ops, cops)
	}
	return dp
}

// dsState is the stmds rung's replica of the server's structures.
type dsState struct {
	mem    *stm.Memory
	kv     *stmds.Map[fixed64, fixed64]
	queues []*stmds.Queue[fixed64]
}

func newDSState(p *plan, dp *dsPlan, eng stm.Engine) (*dsState, error) {
	cfg := serverConfig(eng)
	mem, err := stm.New(cfg.MemoryWords, stm.WithEngine(eng))
	if err != nil {
		return nil, err
	}
	mem.Observe(stm.ObsConfig{Level: stm.ObsCounters})
	kv, err := stmds.NewMap[fixed64, fixed64](mem, fixedCodec{}, fixedCodec{}, cfg.KeyspaceHint)
	if err != nil {
		return nil, err
	}
	s := &dsState{mem: mem, kv: kv}
	for _, c := range p.preload {
		if _, _, err := kv.Put(toFixed(c.key), toFixed(c.val)); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	// The server creates a queue when it plans the first QPUSH naming
	// it, outside every transaction; the replica creates them all here.
	for range dp.queues {
		q, err := stmds.NewQueue[fixed64](mem, fixedCodec{}, cfg.QueueCapacity)
		if err != nil {
			return nil, err
		}
		s.queues = append(s.queues, q)
	}
	return s, nil
}

// exec runs one command inside tx.
func (s *dsState) exec(tx *stm.DTx, op *dsOp) {
	switch op.verb {
	case vGet:
		s.kv.GetTx(tx, op.k)
	case vSet:
		s.kv.PutTx(tx, op.k, op.v)
	case vDel:
		s.kv.DeleteTx(tx, op.k)
	case vIncrBy:
		v, _ := s.kv.GetTx(tx, op.k)
		v.n = byte(len(strconv.AppendInt(v.b[:0], atoi(v.b[:v.n])+op.delta, 10)))
		s.kv.PutTx(tx, op.k, v)
	case vQPush:
		s.queues[op.q].TryPutTx(tx, op.v)
	case vQPop:
		s.queues[op.q].TryTakeTx(tx)
	}
}

// atoi parses a decimal balance the replica itself stored.
func atoi(b []byte) (n int64) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	for _, c := range b {
		n = 10*n + int64(c-'0')
	}
	if neg {
		return -n
	}
	return n
}

// rung is one layer's entry point replaying the plan's batches.
// run(c, j) executes client c's batch j; calls for different clients may
// run concurrently.
type rung interface {
	run(c, j int) (time.Duration, error)
}

// chunkBatches is how many batches a rung runs before the next rung
// takes its turn.
const chunkBatches = 10

// replay runs every client's batches on every rung in lockstep chunks and
// returns each rung's timed batch durations, all clients together.
func replay(p *plan, rungs []rung) ([][]time.Duration, error) {
	lats := make([][][]time.Duration, len(rungs)) // rung, client, batch
	for r := range lats {
		lats[r] = make([][]time.Duration, len(p.clients))
	}
	errs := make([]error, len(p.clients))
	n := len(p.clients[0])
	for lo := 0; lo < n; lo += chunkBatches {
		hi := min(lo+chunkBatches, n)
		for r, rg := range rungs {
			var wg sync.WaitGroup
			for c := range p.clients {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for j := lo; j < hi && errs[c] == nil; j++ {
						d, err := rg.run(c, j)
						if err != nil {
							errs[c] = err
						} else if j >= p.warm {
							lats[r][c] = append(lats[r][c], d)
						}
					}
				}(c)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return nil, err
			}
		}
	}
	out := make([][]time.Duration, len(rungs))
	for r := range lats {
		for _, l := range lats[r] {
			out[r] = append(out[r], l...)
		}
	}
	return out, nil
}

// tcpRung sends each batch over the client's own connection to a live
// server and checks the replies.
type tcpRung struct {
	p       *plan
	srv     *liveServer
	clients []*tcpClient
	failed  []int64 // per client
}

func newTCPRung(p *plan, eng stm.Engine) (*tcpRung, error) {
	ls, _, err := startServer(p, eng, stm.ObsCounters)
	if err != nil {
		return nil, err
	}
	t := &tcpRung{p: p, srv: ls, failed: make([]int64, len(p.clients))}
	for range p.clients {
		c, err := dial(ls.addr)
		if err != nil {
			t.close()
			return nil, err
		}
		t.clients = append(t.clients, c)
	}
	return t, nil
}

func (t *tcpRung) run(c, j int) (time.Duration, error) {
	_, lat, failed, err := t.clients[c].roundTrip(t.p, &t.p.clients[c][j])
	t.failed[c] += int64(failed)
	return lat, err
}

// close checks the final state, then stops the server.
func (t *tcpRung) close() (wrong, err error) {
	for _, c := range t.clients {
		c.conn.Close()
	}
	wrong = checkFinalState(t.srv.Server, t.p)
	return wrong, t.srv.stop()
}

// feedRung feeds each batch to the client's own in-process session, whose
// replies go to io.Discard.
type feedRung struct {
	p        *plan
	srv      *stmserve.Server
	sessions []*stmserve.Session
}

func newFeedRung(p *plan, eng stm.Engine, obs stm.ObsLevel) (*feedRung, error) {
	debug.FreeOSMemory()
	srv, _, err := newServer(p, eng, obs)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	f := &feedRung{p: p, srv: srv}
	for range p.clients {
		f.sessions = append(f.sessions, srv.NewSession(io.Discard))
	}
	return f, nil
}

func (f *feedRung) run(c, j int) (time.Duration, error) {
	t0 := time.Now()
	err := f.sessions[c].Feed(f.p.clients[c][j].wire)
	return time.Since(t0), err
}

// close checks the final state, then stops the server.
func (f *feedRung) close() (wrong error) {
	for _, s := range f.sessions {
		s.Close()
	}
	wrong = checkFinalState(f.srv, f.p)
	f.srv.Close()
	return wrong
}

// dsRung runs each batch's commands as one transaction on a replica of
// the server's structures, then the maintenance the server runs after a
// batch that wrote. It records every batch's footprint for the dtx rung.
type dsRung struct {
	p      *plan
	s      *dsState
	bodies []func(tx *stm.DTx) error // per client, bound once
	cur    []int                     // per client: the batch the body runs
	fps    [][]int                   // per client, per batch
}

func newDSRung(p *plan, dp *dsPlan, eng stm.Engine) (*dsRung, error) {
	debug.FreeOSMemory()
	s, err := newDSState(p, dp, eng)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	d := &dsRung{p: p, s: s, cur: make([]int, len(p.clients)), fps: make([][]int, len(p.clients))}
	for c := range p.clients {
		d.fps[c] = make([]int, len(p.clients[c]))
		d.bodies = append(d.bodies, func(tx *stm.DTx) error {
			ops := dp.ops[c][d.cur[c]]
			for i := range ops {
				s.exec(tx, &ops[i])
			}
			d.fps[c][d.cur[c]] = tx.Footprint()
			return nil
		})
	}
	return d, nil
}

func (d *dsRung) run(c, j int) (time.Duration, error) {
	b := &d.p.clients[c][j]
	d.cur[c] = j
	t0 := time.Now()
	_ = d.s.mem.Atomically(d.bodies[c])
	if b.writes {
		_ = d.s.kv.Maintain()
	}
	return time.Since(t0), nil
}

// dtxRegion is the words each client of the dtx rung owns.
const dtxRegion = 1 << 14

// dtxRung replays the dsRung's footprints: per batch, one Atomically
// reading that many distinct words of the client's own region and, when
// the batch wrote, writing one of them.
type dtxRung struct {
	p      *plan
	ds     *dsRung
	mem    *stm.Memory
	bodies []func(tx *stm.DTx) error
	n      []int  // per client: words the body reads
	write  []bool // per client: whether the body writes
}

func newDTxRung(p *plan, eng stm.Engine, ds *dsRung) (*dtxRung, error) {
	mem, err := stm.New(len(p.clients)*dtxRegion, stm.WithEngine(eng))
	if err != nil {
		return nil, err
	}
	mem.Observe(stm.ObsConfig{Level: stm.ObsCounters})
	x := &dtxRung{p: p, ds: ds, mem: mem, n: make([]int, len(p.clients)), write: make([]bool, len(p.clients))}
	for c := range p.clients {
		base := c * dtxRegion
		x.bodies = append(x.bodies, func(tx *stm.DTx) error {
			var sum uint64
			for a := base; a < base+x.n[c]; a++ {
				sum += tx.Read(a)
			}
			if x.write[c] {
				tx.Write(base, sum+1)
			}
			return nil
		})
	}
	return x, nil
}

func (x *dtxRung) run(c, j int) (time.Duration, error) {
	x.n[c], x.write[c] = x.ds.fps[c][j], x.p.clients[c][j].writes
	if x.n[c] > dtxRegion {
		return 0, fmt.Errorf("footprint %d words exceeds the dtx region", x.n[c])
	}
	t0 := time.Now()
	_ = x.mem.Atomically(x.bodies[c])
	return time.Since(t0), nil
}

// coreNs times single-word Memory.Add and Var.Load: the median over five
// chunks of ops calls each.
func coreNs(eng stm.Engine, ops int) (addNs, loadNs float64, err error) {
	mem, err := stm.New(64, stm.WithEngine(eng))
	if err != nil {
		return 0, 0, err
	}
	mem.Observe(stm.ObsConfig{Level: stm.ObsCounters})
	v, err := stm.Alloc(mem, stm.Int64())
	if err != nil {
		return 0, 0, err
	}
	var adds, loads []float64
	var sink int64
	for c := 0; c < 5; c++ {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			_, _ = mem.Add(0, 1)
		}
		adds = append(adds, float64(time.Since(t0).Nanoseconds())/float64(ops))
		t0 = time.Now()
		for i := 0; i < ops; i++ {
			sink += v.Load()
		}
		loads = append(loads, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	runtime.KeepAlive(sink)
	return median(adds), median(loads), nil
}

// floors are the host's own costs, measured in the same run so that two
// sets of runs on a drifting host can be told apart.
type floors struct {
	atomicAddNs float64 // one sync/atomic add
	nanotimeNs  float64 // one monotonic clock read (time.Now)
	echoRTTUs   float64 // median round trip of a batch's bytes through a plain Go loopback echo
}

// measureFloors measures the three floors; echo round trips replay the
// first echoBatches of bs.
func measureFloors(bs []batch, ops, echoBatches int) (floors, error) {
	var f floors
	var ctr atomic.Int64
	var adds, clocks []float64
	for c := 0; c < 5; c++ {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			ctr.Add(1)
		}
		adds = append(adds, float64(time.Since(t0).Nanoseconds())/float64(ops))
		t0 = time.Now()
		var last time.Time
		for i := 0; i < ops; i++ {
			last = time.Now()
		}
		clocks = append(clocks, float64(last.Sub(t0).Nanoseconds())/float64(ops))
	}
	f.atomicAddNs, f.nanotimeNs = median(adds), median(clocks)
	rtt, err := echoRTT(bs[:min(echoBatches, len(bs))])
	f.echoRTTUs = rtt
	return f, err
}

// echoRTT round-trips each batch's bytes through a loopback echo server
// written in plain Go and returns the median round trip in µs.
func echoRTT(bs []batch) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c)
		echoed <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	lats := make([]time.Duration, 0, len(bs))
	buf := make([]byte, 64<<10)
	for i := range bs {
		w := bs[i].wire
		t0 := time.Now()
		if _, err := conn.Write(w); err != nil {
			conn.Close()
			return 0, err
		}
		if _, err := io.ReadFull(conn, buf[:len(w)]); err != nil {
			conn.Close()
			return 0, err
		}
		lats = append(lats, time.Since(t0))
	}
	conn.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	return durMedianUs(lats), nil
}

package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmserve"
)

// serverConfig is cmd/stmserve's default configuration: 1<<20 words of
// Memory, a keyspace sized for 4096 keys, 1024-element queues.
func serverConfig(eng stm.Engine) stmserve.Config {
	return stmserve.Config{
		Engine:        eng,
		MemoryWords:   1 << 20,
		KeyspaceHint:  4096,
		QueueCapacity: 1024,
		PQCapacity:    1024,
	}
}

// newServer builds a server with the plan's preload applied and checked.
// The returned duration is the set-up time: construction plus preload.
func newServer(p *plan, eng stm.Engine, obs stm.ObsLevel) (*stmserve.Server, time.Duration, error) {
	t0 := time.Now()
	srv, err := stmserve.New(serverConfig(eng))
	if err != nil {
		return nil, 0, fmt.Errorf("build server: %w", err)
	}
	srv.Memory().Observe(stm.ObsConfig{Level: obs})
	rs, err := feedReplies(srv, &p.pre)
	if err != nil {
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	setup := time.Since(t0)
	for i, c := range p.preload {
		if !c.want.matches(rs[i]) {
			return nil, 0, fmt.Errorf("preload of %s: got %v", c.key, rs[i])
		}
	}
	return srv, setup, nil
}

// feedReplies runs one batch through an in-process session and parses the
// replies.
func feedReplies(srv *stmserve.Server, b *batch) ([]reply, error) {
	var out bytes.Buffer
	sess := srv.NewSession(&out)
	defer sess.Close()
	if err := sess.Feed(b.wire); err != nil {
		return nil, err
	}
	return newReplyReader(&out).read(b.nreplies)
}

// checkFinalState reads every key of the plan's final state from srv.
func checkFinalState(srv *stmserve.Server, p *plan) error {
	rs, err := feedReplies(srv, &p.fin)
	if err != nil {
		return fmt.Errorf("final state: %w", err)
	}
	return checkFinals(p, rs)
}

// sample is one timed batch: when its last reply arrived (since the
// round's epoch), its round trip, and the commands it carried.
type sample struct {
	done, lat time.Duration
	cmds      int
}

// tcpClient is one connection to the server under test.
type tcpClient struct {
	conn net.Conn
	rr   *replyReader
}

func dial(addr string) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpClient{conn: conn, rr: newReplyReader(conn)}, nil
}

// roundTrip writes b whole, then reads and checks every reply to it. It
// returns when the last reply arrived, the round trip, and how many of
// b's commands failed. A write or read error (a dropped connection, a
// short read) is returned as is; the caller counts it as one failure.
func (c *tcpClient) roundTrip(p *plan, b *batch) (done time.Time, lat time.Duration, failed int, err error) {
	t0 := time.Now()
	_, err = c.conn.Write(b.wire)
	var rs []reply
	if err == nil {
		rs, err = c.rr.read(b.nreplies)
	}
	done = time.Now()
	if err != nil {
		return done, done.Sub(t0), 0, err
	}
	return done, done.Sub(t0), checkBatch(p, b, rs), nil
}

// clientRun is what one connection saw during a round.
type clientRun struct {
	samples   []sample // timed batches, in order
	attempted int64
	failed    int64
	err       error // why the connection stopped early
}

// runClient sends bs over one connection, closed loop: each batch goes
// out only after every reply to the one before has been read and
// checked. A dropped connection or short read counts as one failed
// operation and ends the client; nothing is retried.
func runClient(addr string, p *plan, bs []batch, epoch time.Time) (cr clientRun) {
	c, err := dial(addr)
	if err != nil {
		cr.err, cr.attempted, cr.failed = err, 1, 1
		return cr
	}
	defer c.conn.Close()
	cr.samples = make([]sample, 0, len(bs)-p.warm)
	for i := range bs {
		b := &bs[i]
		done, lat, failed, err := c.roundTrip(p, b)
		cr.attempted += int64(b.ncmds)
		if err != nil {
			cr.failed++
			cr.err = err
			break
		}
		cr.failed += int64(failed)
		if i >= p.warm {
			cr.samples = append(cr.samples, sample{done: done.Sub(epoch), lat: lat, cmds: b.ncmds})
		}
	}
	return cr
}

// roundRun is one round: a fresh server, the plan's batches over TCP from
// every client at once, and the final-state check.
type roundRun struct {
	setup       time.Duration
	clients     []clientRun
	wordsPerKey float64
	stats       stm.StatsSnapshot // engine counters over the client phase
	commits     uint64            // server batch commits over the client phase
	wrong       error             // the final state disagrees with the model
	err         error             // the round could not run
}

func (r *roundRun) attempted() (n int64) {
	for _, c := range r.clients {
		n += c.attempted
	}
	return n
}

func (r *roundRun) failed() (n int64) {
	for _, c := range r.clients {
		n += c.failed
	}
	return n
}

// timed returns every client's timed batches in completion order.
func (r *roundRun) timed() []sample {
	var all []sample
	for _, c := range r.clients {
		all = append(all, c.samples...)
	}
	slices.SortFunc(all, func(a, b sample) int { return cmp.Compare(a.done, b.done) })
	return all
}

// winBatches is the size of a measurement window: enough batches that
// the window's 99th percentile has ten beyond it.
const winBatches = 1000

// window is the figures of winBatches consecutive timed batches.
type window struct{ rate, p50, p99 float64 }

// windows cuts the round's timed batches, all clients merged in completion
// order, into windows of winBatches and measures each. A window's rate
// counts the commands that completed after its first batch, over the time
// from that batch's completion to the last one's. A short tail is dropped.
func (r *roundRun) windows() []window {
	all := r.timed()
	var out []window
	lats := make([]time.Duration, winBatches)
	for lo := 0; lo+winBatches <= len(all); lo += winBatches {
		w := all[lo : lo+winBatches]
		cmds := 0
		for i, s := range w {
			lats[i] = s.lat
			if i > 0 {
				cmds += s.cmds
			}
		}
		dur := w[len(w)-1].done - w[0].done
		out = append(out, window{
			rate: float64(cmds) / dur.Seconds(),
			p50:  percentileUs(lats, 50),
			p99:  percentileUs(lats, 99),
		})
	}
	return out
}

// liveServer is a server under test listening on loopback.
type liveServer struct {
	*stmserve.Server
	addr   string
	served chan error
}

// startServer builds a server (see newServer), lets the collection its
// allocation triggers finish, and starts serving on a loopback port.
func startServer(p *plan, eng stm.Engine, obs stm.ObsLevel) (*liveServer, time.Duration, error) {
	debug.FreeOSMemory() // every set-up starts from memory fresh from the OS
	srv, setup, err := newServer(p, eng, obs)
	if err != nil {
		return nil, 0, err
	}
	// Building the server allocated its whole Memory; let the collection
	// that triggers finish now rather than inside the timed batches.
	runtime.GC()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ls := &liveServer{Server: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { ls.served <- srv.Serve(ln) }()
	return ls, setup, nil
}

// stop closes the server and waits for Serve to return.
func (ls *liveServer) stop() error {
	ls.Close()
	// Close shuts the listener before it marks the server closed, so
	// Serve may report the closed listener instead of ErrServerClosed.
	if err := <-ls.served; err != stmserve.ErrServerClosed && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// runRound runs one round of p on a fresh server.
func runRound(p *plan, eng stm.Engine, obs stm.ObsLevel) (rr roundRun) {
	ls, setup, err := startServer(p, eng, obs)
	if err != nil {
		rr.err = err
		return rr
	}
	rr.setup = setup
	mem := ls.Memory()
	st0, c0 := mem.Stats(), ls.Metrics().BatchCommands.Total()
	rr.clients = make([]clientRun, len(p.clients))
	epoch := time.Now()
	var wg sync.WaitGroup
	for i := range p.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr.clients[i] = runClient(ls.addr, p, p.clients[i], epoch)
		}(i)
	}
	wg.Wait()
	rr.stats = statsDelta(mem.Stats(), st0)
	rr.commits = ls.Metrics().BatchCommands.Total() - c0
	rr.wordsPerKey = float64(mem.WordsAllocated()) / float64(p.liveKeys)
	rr.wrong = checkFinalState(ls.Server, p)
	rr.err = ls.stop()
	return rr
}

// statsDelta is the engine counters accumulated between two snapshots.
func statsDelta(a, b stm.StatsSnapshot) stm.StatsSnapshot {
	return stm.StatsSnapshot{
		Attempts:           a.Attempts - b.Attempts,
		Commits:            a.Commits - b.Commits,
		Failures:           a.Failures - b.Failures,
		Helps:              a.Helps - b.Helps,
		STConflictAborts:   a.STConflictAborts - b.STConflictAborts,
		STHelpedAborts:     a.STHelpedAborts - b.STHelpedAborts,
		TL2ReadAborts:      a.TL2ReadAborts - b.TL2ReadAborts,
		TL2LockAborts:      a.TL2LockAborts - b.TL2LockAborts,
		TL2ValidateAborts:  a.TL2ValidateAborts - b.TL2ValidateAborts,
		TL2ReadOnlyCommits: a.TL2ReadOnlyCommits - b.TL2ReadOnlyCommits,
	}
}

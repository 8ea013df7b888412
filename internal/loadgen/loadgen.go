// Package loadgen drives the networked KV front end the way the paper's
// Fig. 5 drives memcached with memaslap: N client connections issuing a
// GET/SET/DELETE mix, either closed-loop (a fixed pipeline window per
// connection, the next request issued when a response frees a window
// slot) or open-loop (a paced arrival schedule, latency measured from
// the intended send time so coordinated omission doesn't flatter p99).
package loadgen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/obs"
)

// Proto selects the wire protocol spoken to the server.
type Proto uint8

const (
	ProtoMemcache Proto = iota
	ProtoRESP
)

// Config shapes one load run.
type Config struct {
	Proto    Proto
	Conns    int     // client connections (default 1)
	Pipeline int     // in-flight requests per connection (default 1)
	Keys     uint64  // key-space size (default 1024)
	SetPct   int     // percent SETs (Fig. 5c mix: 40)
	DelPct   int     // percent DELETEs (Fig. 5c mix: 20); the rest are GETs
	Zipf     float64 // key skew exponent when > 1; uniform otherwise
	MGet     int     // keys per GET request (memcache multi-get / RESP MGET); <= 1 means single-key

	Duration    time.Duration // stop after this long (when Ops == 0)
	Ops         uint64        // per-connection op budget (overrides Duration)
	OpenRateOPS int           // > 0: open-loop at this aggregate request rate

	Seed   int64
	Track  bool        // record per-key mutation history (crash convergence)
	Tracer *obs.Tracer // optional: feeds HReqLatency alongside the server's

	// ReportEvery, when positive with Report set, emits a live Interval
	// (ops, rate, windowed latency quantiles) every period while the run
	// progresses — the converging rate table, instead of one final line.
	ReportEvery time.Duration
	Report      func(Interval)

	// Fault tolerance (RunFT). OpTimeout bounds each response wait; a
	// timeout or transport failure kills the session and the client
	// reconnects with exponential backoff + jitter, rotating to the
	// next target after every failed attempt — how a client rides a
	// primary crash onto the promoted standby. Lost in-flight ops are
	// not reissued (they are counted, and tracking records them as
	// maybe-applied). Run ignores these: one session per connection.
	OpTimeout        time.Duration
	ReconnectBackoff time.Duration // base backoff, doubles per failure (default 10ms)
	MaxDialTries     int           // consecutive failed attempts before a conn gives up (default 16)
}

func (cfg *Config) fill() {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 1
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1024
	}
	if cfg.Keys < uint64(cfg.Conns) {
		cfg.Keys = uint64(cfg.Conns)
	}
	if cfg.Ops == 0 && cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.MGet < 1 {
		cfg.MGet = 1
	}
	if cfg.MGet > 60 { // the server's per-request key cap (both protocols)
		cfg.MGet = 60
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = 10 * time.Millisecond
	}
	if cfg.MaxDialTries <= 0 {
		cfg.MaxDialTries = 16
	}
}

// Result aggregates a run.
type Result struct {
	Ops     uint64 // responses received
	Errs    uint64 // error responses (or unparseable replies)
	Hits    uint64 // GET hits
	Misses  uint64 // GET misses
	Elapsed time.Duration

	P50, P99, Max uint64  // response latency, nanoseconds (log2-bucket upper bounds)
	MeanNS        float64 // exact mean

	// Fault-tolerance counters (always zero under Run).
	Retries    uint64 // dial attempts that failed and were retried
	Reconnects uint64 // sessions re-established after a transport loss
	Failovers  uint64 // reconnects that landed on a different target
	TimedOut   uint64 // in-flight ops abandoned to a timeout or dead session

	// Tracked holds per-key mutation histories when Config.Track is set;
	// key spaces are connection-disjoint, so the merge is a plain union.
	Tracked map[uint64]*KeyHist
}

// AppendKey formats key k as its 8-byte wire form ("k" + 7 hex digits),
// valid for both protocols (RESP keys are capped at 8 bytes).
func AppendKey(b []byte, k uint64) []byte {
	b = append(b, 'k')
	for shift := 24; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[(k>>uint(shift))&0xF])
	}
	return b
}

// latHist is a live log2 latency histogram in obs.HistCounts' bucketing.
// Buckets are atomic so the live reporter can snapshot a connection's
// distribution while its reader goroutine observes into it.
type latHist struct {
	buckets [65]atomic.Uint64
	sum     atomic.Uint64
}

func (h *latHist) observe(ns uint64) {
	h.buckets[bits.Len64(ns)].Add(1)
	h.sum.Add(ns)
}

// read accumulates the histogram's current state into dst.
func (h *latHist) read(dst *obs.HistCounts) {
	for i := range h.buckets {
		dst.Buckets[i] += h.buckets[i].Load()
	}
	dst.Sum += h.sum.Load()
}

// pend is the reader-side record of one in-flight request. hist carries
// the tracked key's history by pointer so the reader never touches the
// writer-owned tracked map: the writer appends to Ops, the reader only
// increments Acked, and the meta channel orders each append before the
// ack that could observe it.
type pend struct {
	get   bool
	nk    int // keys in a GET request (multi-get batches count as one op)
	key   uint64
	hist  *KeyHist // non-nil: tracked mutation (ack advances Acked)
	opIdx int      // this mutation's position in hist.Ops
	ts    int64    // send timestamp (intended send time in open-loop mode)
}

// clientConn is one logical client across its (possibly several)
// transport sessions. The live session's writer and reader goroutines
// share it through that session's meta channel and window semaphore.
type clientConn struct {
	cfg Config
	id  int

	// Reader-written, atomically readable by the live reporter.
	ops, errs, hits, misses atomic.Uint64
	lat                     latHist

	// Fault-tolerance counters (RunFT).
	retries, reconnects, failovers, timedOut atomic.Uint64

	tracked map[uint64]*KeyHist
	rerr    error

	// Budget and value-uniqueness state carried across sessions.
	issued   uint64
	valSeq   uint64
	deadline time.Time
}

// session is one transport attempt of a clientConn.
type session struct {
	c      *clientConn
	nc     net.Conn
	window chan struct{} // pipeline window tokens
	meta   chan pend     // FIFO of in-flight requests (writer → reader)
	dead   chan struct{} // closed by the reader on transport failure
}

// Run drives the configured load against connections from dial and
// blocks until every connection finished (op budget, duration, or server
// hangup). dial is called once per connection; a session loss ends that
// connection. For reconnection and failover use RunFT.
func Run(cfg Config, dial func() (net.Conn, error)) (*Result, error) {
	return run(cfg, []func() (net.Conn, error){dial}, false)
}

// RunFT drives the same load fault-tolerantly against a preference-
// ordered target list (dials[0] is the primary). Each connection starts
// on the primary; when a session dies — transport error, per-op timeout,
// server crash — the client reconnects with exponential backoff plus
// jitter, rotating to the next target after every failed attempt, and
// keeps going until its budget or MaxDialTries is exhausted. Acked ops
// are never double-issued; in-flight ops lost with a session are counted
// in Result.TimedOut and recorded as maybe-applied in tracking.
func RunFT(cfg Config, dials []func() (net.Conn, error)) (*Result, error) {
	if len(dials) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	return run(cfg, dials, true)
}

func run(cfg Config, dials []func() (net.Conn, error), ft bool) (*Result, error) {
	cfg.fill()
	clients := make([]*clientConn, cfg.Conns)
	ncs := make([]net.Conn, cfg.Conns)
	for i := range clients {
		// The first session dials synchronously so a bad address fails
		// the run instead of spinning the reconnect loop.
		nc, err := dials[0]()
		if err != nil {
			for _, nc := range ncs[:i] {
				nc.Close()
			}
			return nil, fmt.Errorf("loadgen: dial conn %d: %w", i, err)
		}
		ncs[i] = nc
		clients[i] = &clientConn{cfg: cfg, id: i}
		if cfg.Track {
			clients[i].tracked = map[uint64]*KeyHist{}
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *clientConn, nc net.Conn) {
			defer wg.Done()
			c.drive(nc, dials, ft)
		}(c, ncs[i])
	}
	repStop := make(chan struct{})
	var repWG sync.WaitGroup
	if cfg.ReportEvery > 0 && cfg.Report != nil {
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			reportLoop(&cfg, clients, start, repStop)
		}()
	}
	wg.Wait()
	close(repStop)
	repWG.Wait()
	res := &Result{Elapsed: time.Since(start)}
	var all obs.HistCounts
	for _, c := range clients {
		res.Ops += c.ops.Load()
		res.Errs += c.errs.Load()
		res.Hits += c.hits.Load()
		res.Misses += c.misses.Load()
		res.Retries += c.retries.Load()
		res.Reconnects += c.reconnects.Load()
		res.Failovers += c.failovers.Load()
		res.TimedOut += c.timedOut.Load()
		c.lat.read(&all)
		if cfg.Track {
			if res.Tracked == nil {
				res.Tracked = map[uint64]*KeyHist{}
			}
			for k, h := range c.tracked {
				res.Tracked[k] = h
			}
		}
	}
	res.P50 = all.Quantile(0.50)
	res.P99 = all.Quantile(0.99)
	res.Max = all.Quantile(1.0)
	res.MeanNS = all.Mean()
	return res, nil
}

// drive runs c's full budget across as many sessions as it takes,
// starting on the already-established nc (dialed as dials[0]). Without
// ft the first session loss ends the connection — Run's historical
// contract.
func (c *clientConn) drive(nc net.Conn, dials []func() (net.Conn, error), ft bool) {
	cfg := &c.cfg
	if cfg.Ops == 0 {
		c.deadline = time.Now().Add(cfg.Duration)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5EED ^ int64(c.id)<<17))
	target, fails := 0, 0
	for {
		opsBefore := c.ops.Load()
		done, lost := c.runSession(nc, cfg.OpTimeout)
		c.timedOut.Add(uint64(lost))
		if done || !ft {
			return
		}
		// A session that made zero progress burns a dial try too —
		// otherwise a listener that accepts and instantly hangs up
		// (a dead-but-bound primary) would livelock the loop.
		if c.ops.Load() == opsBefore {
			fails++
		} else {
			fails = 0
		}
		prev := target
		for {
			if c.budgetDone() {
				return
			}
			if fails >= cfg.MaxDialTries {
				c.rerr = fmt.Errorf("loadgen: conn %d: gave up after %d attempts", c.id, fails)
				return
			}
			var err error
			nc, err = dials[target]()
			if err == nil {
				break
			}
			c.retries.Add(1)
			fails++
			// Rotate to the next target and back off: doubling per
			// failure (capped), plus jitter so reconnecting clients
			// don't stampede the freshly promoted standby in phase.
			target = (target + 1) % len(dials)
			shift := fails
			if shift > 6 {
				shift = 6
			}
			d := cfg.ReconnectBackoff << uint(shift-1)
			time.Sleep(d + time.Duration(rng.Int63n(int64(d/2+1))))
		}
		c.reconnects.Add(1)
		if target != prev {
			c.failovers.Add(1)
		}
	}
}

// budgetDone reports whether the connection's op or time budget is
// spent.
func (c *clientConn) budgetDone() bool {
	if c.cfg.Ops > 0 {
		return c.issued >= c.cfg.Ops
	}
	return time.Now().After(c.deadline)
}

// runSession runs one transport attempt: the writer inline, the reader
// in its own goroutine. done means the budget completed cleanly (every
// issued op acknowledged); lost counts in-flight ops abandoned when the
// transport died.
func (c *clientConn) runSession(nc net.Conn, opTimeout time.Duration) (done bool, lost int) {
	s := &session{
		c:      c,
		nc:     nc,
		window: make(chan struct{}, c.cfg.Pipeline),
		meta:   make(chan pend, c.cfg.Pipeline),
		dead:   make(chan struct{}),
	}
	rdone := make(chan int, 1)
	go func() { rdone <- s.readLoop(opTimeout) }()
	finished := s.writeLoop()
	lost = <-rdone
	nc.Close()
	return finished && lost == 0, lost
}

// Interval is one live progress report from a running load: the window's
// throughput and latency distribution, plus cumulative position. A rate
// table of Intervals converging is how a warm-up (or a regression) shows
// itself during the run instead of after it.
type Interval struct {
	Seq     int           // 1-based report index
	Elapsed time.Duration // since the run started
	Window  time.Duration // this report's measurement window

	Ops       uint64 // responses in the window
	Errs      uint64 // error responses in the window
	OpsPerSec float64
	P50, P99  uint64 // window latency, ns (log2-bucket upper bounds)

	// Fault-tolerance counters, cumulative (RunFT): a jump in
	// Reconnects or Failovers between rows is the live view of a
	// session loss or a primary→standby switch.
	Reconnects uint64
	Failovers  uint64
	TimedOut   uint64
}

// reportLoop snapshots the clients every ReportEvery and reports the
// window between consecutive snapshots.
func reportLoop(cfg *Config, clients []*clientConn, start time.Time, stop <-chan struct{}) {
	tick := time.NewTicker(cfg.ReportEvery)
	defer tick.Stop()
	var prevOps, prevErrs uint64
	var prevLat obs.HistCounts
	prevT := start
	seq := 0
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			var ops, errs uint64
			var rc, fo, to uint64
			var lat obs.HistCounts
			for _, c := range clients {
				ops += c.ops.Load()
				errs += c.errs.Load()
				rc += c.reconnects.Load()
				fo += c.failovers.Load()
				to += c.timedOut.Load()
				c.lat.read(&lat)
			}
			win := lat.Sub(&prevLat)
			iv := Interval{
				Seq:        seq + 1,
				Elapsed:    now.Sub(start),
				Window:     now.Sub(prevT),
				Ops:        ops - prevOps,
				Errs:       errs - prevErrs,
				P50:        win.Quantile(0.50),
				P99:        win.Quantile(0.99),
				Reconnects: rc,
				Failovers:  fo,
				TimedOut:   to,
			}
			if iv.Window > 0 {
				iv.OpsPerSec = float64(iv.Ops) / iv.Window.Seconds()
			}
			cfg.Report(iv)
			seq++
			prevOps, prevErrs, prevLat, prevT = ops, errs, lat, now
		}
	}
}

// ReportPrinter returns a Report callback printing one rate-table line
// per interval to w — the idoserve -load live view.
func ReportPrinter(w io.Writer) func(Interval) {
	return func(iv Interval) {
		fmt.Fprintf(w, "interval %3d  t=%6.1fs  %10.0f ops/s  errs %d  p50 %v  p99 %v",
			iv.Seq, iv.Elapsed.Seconds(), iv.OpsPerSec, iv.Errs,
			time.Duration(iv.P50), time.Duration(iv.P99))
		if iv.Reconnects > 0 || iv.TimedOut > 0 {
			fmt.Fprintf(w, "  reconnects %d  failovers %d  lost %d",
				iv.Reconnects, iv.Failovers, iv.TimedOut)
		}
		fmt.Fprintln(w)
	}
}

// ---- writer ----

// writeLoop issues requests until the connection's budget is spent or
// the session dies; true means the budget completed. Budget state lives
// on the clientConn so a reconnected session resumes where the dead one
// stopped. The RNG is reseeded per session from the cumulative issue
// count, keeping the op mix deterministic for a given loss pattern.
func (ss *session) writeLoop() bool {
	c := ss.c
	cfg := &c.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + int64(c.id)*7919 + int64(c.issued)))
	perConn := cfg.Keys / uint64(cfg.Conns)
	if perConn == 0 {
		perConn = 1
	}
	var zipf *rand.Zipf
	if cfg.Zipf > 1 {
		zipf = rand.NewZipf(rng, cfg.Zipf, 1, perConn-1)
	}
	bw := bufio.NewWriterSize(ss.nc, 32<<10)
	var interval time.Duration
	next := time.Now()
	if cfg.OpenRateOPS > 0 {
		rate := cfg.OpenRateOPS / cfg.Conns
		if rate <= 0 {
			rate = 1
		}
		interval = time.Second / time.Duration(rate)
	}
	scratch := make([]byte, 0, 64)
	finished := false
	for {
		if c.budgetDone() {
			finished = true
			break
		}
		// Window slot: flush buffered requests before blocking, so the
		// server always sees everything we are waiting on.
		select {
		case ss.window <- struct{}{}:
		default:
			if bw.Flush() != nil {
				goto out
			}
			select {
			case ss.window <- struct{}{}:
			case <-ss.dead:
				goto out
			}
		}
		// Open-loop pacing: latency is measured from the intended send
		// time, so queueing delay inside the client counts against p99.
		ts := time.Now()
		if interval > 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			ts = next
		}
		// Pick op and key.
		var kidx uint64
		if zipf != nil {
			kidx = zipf.Uint64()
		} else {
			kidx = rng.Uint64() % perConn
		}
		key := uint64(c.id)*perConn + kidx
		p := pend{key: key, ts: ts.UnixNano()}
		roll := rng.Intn(100)
		scratch = scratch[:0]
		switch {
		case roll < cfg.SetPct:
			c.valSeq++
			val := uint64(c.id+1)<<40 | c.valSeq
			scratch = c.encodeSet(scratch, key, val)
			p.hist, p.opIdx = c.track(key, KeyOp{Val: val})
		case roll < cfg.SetPct+cfg.DelPct:
			scratch = c.encodeDel(scratch, key)
			p.hist, p.opIdx = c.track(key, KeyOp{Del: true})
		default:
			p.get = true
			p.nk = cfg.MGet
			if p.nk > 1 {
				// Multi-get: MGet consecutive keys starting at the rolled
				// one, wrapped within this connection's key space so every
				// key stays connection-local.
				base := uint64(c.id) * perConn
				scratch = c.encodeGetN(scratch, func(i int) uint64 {
					return base + (kidx+uint64(i))%perConn
				}, p.nk)
			} else {
				scratch = c.encodeGet(scratch, key)
			}
		}
		if _, err := bw.Write(scratch); err != nil {
			goto out
		}
		ss.meta <- p
		c.issued++
	}
out:
	bw.Flush()
	close(ss.meta)
	return finished
}

// track appends a mutation to the key's history and returns it (nil when
// tracking is off) plus the op's position, so the reader can ack without
// reading the map.
func (c *clientConn) track(key uint64, op KeyOp) (*KeyHist, int) {
	if c.tracked == nil {
		return nil, 0
	}
	h := c.tracked[key]
	if h == nil {
		h = &KeyHist{}
		c.tracked[key] = h
	}
	h.Ops = append(h.Ops, op)
	return h, len(h.Ops) - 1
}

func (c *clientConn) encodeGet(b []byte, key uint64) []byte {
	if c.cfg.Proto == ProtoMemcache {
		b = append(b, "get "...)
		b = AppendKey(b, key)
		return append(b, '\r', '\n')
	}
	b = append(b, "*2\r\n$3\r\nGET\r\n$8\r\n"...)
	b = AppendKey(b, key)
	return append(b, '\r', '\n')
}

// encodeGetN encodes one n-key batch read: a space-separated memcache
// multi-get or a RESP MGET array. keyAt(i) yields the i-th key.
func (c *clientConn) encodeGetN(b []byte, keyAt func(int) uint64, n int) []byte {
	if c.cfg.Proto == ProtoMemcache {
		b = append(b, "get"...)
		for i := 0; i < n; i++ {
			b = append(b, ' ')
			b = AppendKey(b, keyAt(i))
		}
		return append(b, '\r', '\n')
	}
	b = append(b, '*')
	b = strconv.AppendUint(b, uint64(n+1), 10)
	b = append(b, "\r\n$4\r\nMGET\r\n"...)
	for i := 0; i < n; i++ {
		b = append(b, "$8\r\n"...)
		b = AppendKey(b, keyAt(i))
		b = append(b, '\r', '\n')
	}
	return b
}

func (c *clientConn) encodeDel(b []byte, key uint64) []byte {
	if c.cfg.Proto == ProtoMemcache {
		b = append(b, "delete "...)
		b = AppendKey(b, key)
		return append(b, '\r', '\n')
	}
	b = append(b, "*2\r\n$3\r\nDEL\r\n$8\r\n"...)
	b = AppendKey(b, key)
	return append(b, '\r', '\n')
}

func (c *clientConn) encodeSet(b []byte, key, val uint64) []byte {
	var dig [20]byte
	d := strconv.AppendUint(dig[:0], val, 10)
	if c.cfg.Proto == ProtoMemcache {
		b = append(b, "set "...)
		b = AppendKey(b, key)
		b = append(b, " 0 0 "...)
		b = strconv.AppendUint(b, uint64(len(d)), 10)
		b = append(b, '\r', '\n')
		b = append(b, d...)
		return append(b, '\r', '\n')
	}
	b = append(b, "*3\r\n$3\r\nSET\r\n$8\r\n"...)
	b = AppendKey(b, key)
	b = append(b, "\r\n$"...)
	b = strconv.AppendUint(b, uint64(len(d)), 10)
	b = append(b, '\r', '\n')
	b = append(b, d...)
	return append(b, '\r', '\n')
}

// ---- reader ----

// readLoop consumes replies until the meta stream closes or the
// transport dies, returning the number of in-flight ops it abandoned
// (zero on a clean finish). With opTimeout set, each wait is bounded by
// a read deadline — a server that stops answering counts as dead.
func (ss *session) readLoop(opTimeout time.Duration) (lost int) {
	c := ss.c
	br := bufio.NewReaderSize(ss.nc, 32<<10)
	for p := range ss.meta {
		if opTimeout > 0 {
			ss.nc.SetReadDeadline(time.Now().Add(opTimeout))
		}
		ok, hits, err := c.readReply(br, p.get)
		if err != nil {
			// Server went away mid-window: this reply and the remaining
			// in-flight requests are unacknowledged by definition.
			c.rerr = err
			lost++
			close(ss.dead)
			break
		}
		lat := uint64(time.Now().UnixNano() - p.ts)
		c.lat.observe(lat)
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.Observe(obs.HReqLatency, lat)
		}
		c.ops.Add(1)
		if !ok {
			c.errs.Add(1)
		} else {
			if p.get {
				// Per-key accounting: a multi-get is one op but nk
				// hit-or-miss outcomes.
				c.hits.Add(uint64(hits))
				if p.nk > hits {
					c.misses.Add(uint64(p.nk - hits))
				}
			}
			if p.hist != nil && p.opIdx+1 > p.hist.Acked {
				p.hist.Acked = p.opIdx + 1
			}
		}
		<-ss.window
	}
	// Drain any leftover meta so the writer never blocks on a full
	// channel after a read error.
	for range ss.meta {
		lost++
	}
	return lost
}

// readReply consumes exactly one response and returns the number of
// values it carried (hits). ok=false is a server-reported error (the
// connection stays usable); err != nil is a transport or framing
// failure.
func (c *clientConn) readReply(br *bufio.Reader, isGet bool) (ok bool, hits int, err error) {
	if c.cfg.Proto == ProtoMemcache {
		return c.readMcReply(br, isGet)
	}
	return c.readRespReply(br)
}

func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func (c *clientConn) readMcReply(br *bufio.Reader, isGet bool) (bool, int, error) {
	if isGet {
		hits := 0
		for {
			line, err := readLine(br)
			if err != nil {
				return false, 0, err
			}
			switch {
			case bytes.Equal(line, []byte("END")):
				return true, hits, nil
			case bytes.HasPrefix(line, []byte("VALUE ")):
				hits++
				if _, err := readLine(br); err != nil { // data line
					return false, 0, err
				}
			default:
				return false, 0, nil // protocol error reply
			}
		}
	}
	line, err := readLine(br)
	if err != nil {
		return false, 0, err
	}
	switch {
	case bytes.Equal(line, []byte("STORED")),
		bytes.Equal(line, []byte("DELETED")),
		bytes.Equal(line, []byte("NOT_FOUND")):
		return true, 0, nil
	}
	return false, 0, nil
}

func (c *clientConn) readRespReply(br *bufio.Reader) (bool, int, error) {
	line, err := readLine(br)
	if err != nil {
		return false, 0, err
	}
	if len(line) == 0 {
		return false, 0, fmt.Errorf("loadgen: empty RESP reply")
	}
	switch line[0] {
	case '+', ':':
		return true, 0, nil
	case '-':
		return false, 0, nil
	case '$':
		hit, err := c.readRespBulk(br, line)
		if err != nil {
			return false, 0, err
		}
		if hit {
			return true, 1, nil
		}
		return true, 0, nil
	case '*':
		// MGET reply: an array of n bulk elements, one per requested key,
		// null for misses.
		n, perr := strconv.Atoi(string(line[1:]))
		if perr != nil || n < 0 {
			return false, 0, fmt.Errorf("loadgen: bad array header %q", line)
		}
		hits := 0
		for i := 0; i < n; i++ {
			el, err := readLine(br)
			if err != nil {
				return false, 0, err
			}
			if len(el) == 0 || el[0] != '$' {
				return false, 0, fmt.Errorf("loadgen: bad array element %q", el)
			}
			hit, err := c.readRespBulk(br, el)
			if err != nil {
				return false, 0, err
			}
			if hit {
				hits++
			}
		}
		return true, hits, nil
	}
	return false, 0, fmt.Errorf("loadgen: unparseable reply %q", line)
}

// readRespBulk consumes the data line of a bulk reply whose `$n` header
// line is already in hand; a negative length is a null bulk (miss).
func (c *clientConn) readRespBulk(br *bufio.Reader, header []byte) (hit bool, err error) {
	n, perr := strconv.Atoi(string(header[1:]))
	if perr != nil {
		return false, fmt.Errorf("loadgen: bad bulk header %q", header)
	}
	if n < 0 {
		return false, nil
	}
	if _, err := readLine(br); err != nil { // data line
		return false, err
	}
	return true, nil
}

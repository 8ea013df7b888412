package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/server"
)

// clockBase anchors every benchmark timestamp (monotonic nanoseconds).
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// client is one closed-loop connection: memaslap's shape, a caller that
// keeps depth requests in flight and issues the next one only when a
// reply frees a slot. It owns a disjoint key range and a model of that
// range, so every reply can be checked exactly.
type client struct {
	id    int
	proto server.Proto
	base  uint64   // first global key index of the range
	vals  []uint64 // model: value per local key, 0 = absent
	// evict: the server may drop keys on its own (LRU watermark), so a
	// miss or NOT_FOUND is not a contradiction; a hit must still carry
	// the latest SET value.
	evict  bool
	valSeq uint64
	stream []uint32
	pos    int

	// track keeps per-key mutation histories for the durability check.
	track bool
	hist  []loadgen.KeyHist

	// Measurement: rec keeps the exact latency of every request sent in
	// the interval [recFrom, recUntil). The interval is cut into windows
	// of winNS; done[w] counts the replies received in window w.
	recFrom, recUntil, winNS int64
	rec                      *latRec
	done                     []uint64

	spans      *spanLog // non-nil in the traced run: sampled request spans
	spanParent int32

	st    driveStats
	fails []string // first few failure descriptions
}

// driveStats counts one client's requests and their outcomes.
type driveStats struct {
	attempted uint64
	completed uint64
	errReply  uint64 // the server answered with an error
	mismatch  uint64 // the reply contradicts the connection's model
	timedOut  uint64 // no reply before the deadline or the transport died
	gets      uint64
	hits      uint64
	writes    uint64 // sets + dels acknowledged
}

func (s *driveStats) failed() uint64 { return s.errReply + s.mismatch + s.timedOut }

func (s *driveStats) add(o driveStats) {
	s.attempted += o.attempted
	s.completed += o.completed
	s.errReply += o.errReply
	s.mismatch += o.mismatch
	s.timedOut += o.timedOut
	s.gets += o.gets
	s.hits += o.hits
	s.writes += o.writes
}

// pending is one in-flight request.
type pending struct {
	kind  uint8
	idx   uint32
	want  uint64 // model value when issued (0 = absent)
	ts    int64  // send time
	opIdx int    // position in the key's tracked history
}

func newClient(w *workload, id int, stream []uint32) *client {
	perConn := w.keys / conns
	c := &client{
		id:     id,
		proto:  w.proto,
		base:   uint64(id) * perConn,
		vals:   make([]uint64, perConn),
		evict:  w.maxItems > 0,
		stream: stream,
	}
	for i := range c.vals {
		if k := c.base + uint64(i); w.prefilled(k) {
			c.vals[i] = prefillVal(k)
		}
	}
	return c
}

// prefillVal is the value stored for key k before the run; client
// values carry the connection id in bits 40+ so the two never collide.
func prefillVal(k uint64) uint64 { return 1<<60 | k }

// startTracking begins per-key histories from the model's current
// state: a present key starts with one acknowledged set.
func (c *client) startTracking() {
	c.track = true
	c.hist = make([]loadgen.KeyHist, len(c.vals))
	for i, v := range c.vals {
		if v != 0 {
			c.hist[i] = loadgen.KeyHist{Ops: []loadgen.KeyOp{{Val: v}}, Acked: 1}
		}
	}
}

func (c *client) fail(format string, args ...any) {
	if len(c.fails) < 8 {
		c.fails = append(c.fails, fmt.Sprintf("conn %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// replyTimeout bounds how long a run waits past its end for replies.
const replyTimeout = 10 * time.Second

// drive runs the closed loop on nc with depth requests in flight until
// the clock passes until (or limit ops were issued, when limit > 0),
// then drains the replies still in flight. A transport failure or a
// reply missing at until+replyTimeout counts every in-flight request as
// timed out and returns the error.
func (c *client) drive(nc net.Conn, depth int, until int64, limit int) error {
	deadline := clockBase.Add(time.Duration(until) + replyTimeout)
	if err := nc.SetReadDeadline(deadline); err != nil {
		return err
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	out := make([]byte, 0, 64*depth)
	ring := make([]pending, depth)
	var head, tail, unsent, issued int
	stopped := false
	issue := func(t int64) {
		if stopped || t >= until || (limit > 0 && issued >= limit) {
			stopped = true
			return
		}
		kind, idx := unpackOp(c.stream[c.pos%len(c.stream)])
		c.pos++
		issued++
		p := &ring[tail%depth]
		*p = pending{kind: kind, idx: idx, want: c.vals[idx]}
		out = c.encode(out, kind, c.base+uint64(idx), idx)
		if c.track && kind != opGet {
			h := &c.hist[idx]
			op := loadgen.KeyOp{Del: kind == opDel, Val: c.vals[idx]}
			h.Ops = append(h.Ops, op)
			p.opIdx = len(h.Ops) - 1
		}
		tail++
		unsent++
		c.st.attempted++
	}
	flush := func() error {
		t := now()
		for i := tail - unsent; i < tail; i++ {
			ring[i%depth].ts = t
		}
		unsent = 0
		_, err := nc.Write(out)
		out = out[:0]
		return err
	}
	t := now()
	for tail-head < depth && !stopped {
		issue(t)
	}
	if err := flush(); err != nil {
		c.st.timedOut += uint64(tail - head)
		return err
	}
	for head < tail {
		p := &ring[head%depth]
		hit, val, ok, err := c.readReply(br, p.kind)
		if err != nil {
			c.st.timedOut += uint64(tail - head)
			return err
		}
		t = now()
		c.st.completed++
		c.check(p, hit, val, ok)
		if p.ts >= c.recFrom && p.ts < c.recUntil {
			c.rec.add(t - p.ts)
			if c.spans != nil && c.st.completed%spanSample == 0 {
				c.spans.add(spanRequest, c.spanParent, p.ts, t)
			}
		}
		if t >= c.recFrom && t < c.recUntil {
			c.done[(t-c.recFrom)/c.winNS]++
		}
		head++
		issue(t)
		if unsent > 0 && br.Buffered() == 0 {
			if err := flush(); err != nil {
				c.st.timedOut += uint64(tail - head)
				return err
			}
		}
	}
	return nil
}

// encode appends the request for global key k and applies it to the
// model, which therefore always holds the state every later request on
// this connection will observe: same key, same shard, one FIFO
// pipeline, and the server's per-connection read-your-writes gate.
func (c *client) encode(b []byte, kind uint8, k uint64, idx uint32) []byte {
	mc := c.proto == server.ProtoMemcache
	switch kind {
	case opGet:
		if mc {
			b = append(b, "get "...)
		} else {
			b = append(b, "*2\r\n$3\r\nGET\r\n$8\r\n"...)
		}
	case opSet:
		c.valSeq++
		v := uint64(c.id+1)<<40 | c.valSeq
		c.vals[idx] = v
		var dig [20]byte
		d := strconv.AppendUint(dig[:0], v, 10)
		if mc {
			b = append(b, "set "...)
			b = loadgen.AppendKey(b, k)
			b = append(b, " 0 0 "...)
			b = strconv.AppendInt(b, int64(len(d)), 10)
			b = append(b, "\r\n"...)
		} else {
			b = append(b, "*3\r\n$3\r\nSET\r\n$8\r\n"...)
			b = loadgen.AppendKey(b, k)
			b = append(b, "\r\n$"...)
			b = strconv.AppendInt(b, int64(len(d)), 10)
			b = append(b, "\r\n"...)
		}
		b = append(b, d...)
		return append(b, "\r\n"...)
	case opDel:
		c.vals[idx] = 0
		if mc {
			b = append(b, "delete "...)
		} else {
			b = append(b, "*2\r\n$3\r\nDEL\r\n$8\r\n"...)
		}
	}
	b = loadgen.AppendKey(b, k)
	return append(b, "\r\n"...)
}

// check holds one reply against the model state recorded at issue.
func (c *client) check(p *pending, hit bool, val uint64, ok bool) {
	if !ok {
		c.st.errReply++
		c.fail("%s key %d: error reply", opNames[p.kind], c.base+uint64(p.idx))
		return
	}
	present := p.want != 0
	switch p.kind {
	case opGet:
		c.st.gets++
		switch {
		case hit && val != p.want:
			c.st.mismatch++
			c.fail("get key %d: got %d, model holds %d", c.base+uint64(p.idx), val, p.want)
		case !hit && present && !c.evict:
			c.st.mismatch++
			c.fail("get key %d: miss, model holds %d", c.base+uint64(p.idx), p.want)
		case hit:
			c.st.hits++
		}
		return
	case opDel:
		if hit != present && (hit || !c.evict) {
			c.st.mismatch++
			c.fail("delete key %d: found=%v, model present=%v", c.base+uint64(p.idx), hit, present)
			return
		}
	}
	c.st.writes++
	if c.track {
		h := &c.hist[p.idx]
		if p.opIdx+1 > h.Acked {
			h.Acked = p.opIdx + 1
		}
	}
}

var errBadReply = errors.New("unparseable reply")

// readReply consumes exactly one reply. For a GET, hit and val are the
// outcome; for a DELETE, hit reports whether the key was found. ok is
// false for an error reply the server sent on a live connection.
func (c *client) readReply(br *bufio.Reader, kind uint8) (hit bool, val uint64, ok bool, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return false, 0, false, err
	}
	line = bytes.TrimSuffix(line, []byte("\r\n"))
	if c.proto == server.ProtoMemcache {
		return readMcReply(br, kind, line)
	}
	return readRespReply(br, kind, line)
}

func readMcReply(br *bufio.Reader, kind uint8, line []byte) (bool, uint64, bool, error) {
	switch kind {
	case opGet:
		if string(line) == "END" {
			return false, 0, true, nil
		}
		if !bytes.HasPrefix(line, []byte("VALUE ")) {
			return false, 0, false, nil
		}
		data, err := br.ReadSlice('\n')
		if err != nil {
			return false, 0, false, err
		}
		v, vok := parseValue(data)
		end, err := br.ReadSlice('\n')
		if err != nil {
			return false, 0, false, err
		}
		if !vok || string(end) != "END\r\n" {
			return false, 0, false, errBadReply
		}
		return true, v, true, nil
	case opSet:
		return false, 0, string(line) == "STORED", nil
	default:
		switch string(line) {
		case "DELETED":
			return true, 0, true, nil
		case "NOT_FOUND":
			return false, 0, true, nil
		}
		return false, 0, false, nil
	}
}

func readRespReply(br *bufio.Reader, kind uint8, line []byte) (bool, uint64, bool, error) {
	if len(line) == 0 {
		return false, 0, false, errBadReply
	}
	switch kind {
	case opGet:
		if string(line) == "$-1" {
			return false, 0, true, nil
		}
		if line[0] != '$' {
			return false, 0, false, nil
		}
		data, err := br.ReadSlice('\n')
		if err != nil {
			return false, 0, false, err
		}
		v, vok := parseValue(data)
		if !vok {
			return false, 0, false, errBadReply
		}
		return true, v, true, nil
	case opSet:
		return false, 0, string(line) == "+OK", nil
	default:
		switch string(line) {
		case ":1":
			return true, 0, true, nil
		case ":0":
			return false, 0, true, nil
		}
		return false, 0, false, nil
	}
}

// parseValue parses a decimal value line ending in CRLF without
// allocating.
func parseValue(line []byte) (uint64, bool) {
	d, ok := bytes.CutSuffix(line, []byte("\r\n"))
	if !ok || len(d) == 0 || len(d) > 19 {
		return 0, false
	}
	var v uint64
	for _, ch := range d {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		v = v*10 + uint64(ch-'0')
	}
	return v, true
}

// logFails prints the first failure descriptions of each client.
func logFails(phase string, cs []*client) {
	for _, c := range cs {
		for _, f := range c.fails {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", phase, f)
		}
		c.fails = c.fails[:0]
	}
}

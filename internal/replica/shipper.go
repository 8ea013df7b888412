package replica

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/metrics"
)

// ShipperConfig sizes the primary-side log shipper.
type ShipperConfig struct {
	// Shards is the number of store shards feeding the shipper; must
	// equal the store's shard count.
	Shards int
	// Buffer is the per-shard unacked record ring capacity (default
	// 8192). Overflow detaches the standby: availability over
	// replication, counted and logged rather than stalling a shard.
	Buffer int
	// AckTimeout bounds how long a deferred client completion may wait
	// for the standby's receipt ack before the shipper declares the
	// standby dead, completes everything pending, and degrades to async
	// (default 2s).
	AckTimeout time.Duration
	// Heartbeat is the idle-stream heartbeat period (default 100ms); it
	// also paces the ack-timeout scan.
	Heartbeat time.Duration
	// Complete is the deferred-completion callback: the shipper calls it
	// exactly once per published token, from its own goroutines (or
	// inline from Publish when degraded). Must be non-blocking.
	Complete func(tok any)
}

func (c *ShipperConfig) fill() {
	if c.Buffer <= 0 {
		c.Buffer = 8192
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
}

// pendRec is one buffered record: the wire fields plus the deferred
// completion token (nil once receipt-acked) and its publish time.
type pendRec struct {
	rec
	tok   any
	pubNS int64
}

// shipShard is one shard's replication state. recs holds every record
// not yet durably applied on the standby, in seq order; entries below
// the receipt ack have nil tokens.
type shipShard struct {
	mu      sync.Mutex
	recs    []pendRec
	nextSeq uint64 // next seq to assign (last published + 1)
	sentSeq uint64 // highest seq handed to the current stream
	recvAck uint64 // standby's highest receipt ack
	durAck  uint64 // standby's highest durable-apply ack
	lost    bool   // overflow while detached: buffered history incomplete
}

// Shipper is the primary-side half: the server's shards Publish committed
// mutations, a sender goroutine streams them to the attached standby,
// and an ack reader releases deferred client completions.
type Shipper struct {
	cfg ShipperConfig

	shards []shipShard

	mu       sync.Mutex
	nc       net.Conn // current standby stream, nil when detached
	ln       net.Listener
	gen      uint64 // bumps on every attach/detach; stream goroutines check it
	attached atomic.Bool
	killed   atomic.Bool
	wg       sync.WaitGroup

	doorbell chan struct{} // rung by Publish; sender drains

	// Counters for ReplSnapshot.
	shippedRecs atomic.Uint64
	shippedByte atomic.Uint64
	ackedRecs   atomic.Uint64
	degraded    atomic.Uint64
	detaches    atomic.Uint64
	attaches    atomic.Uint64
}

// NewShipper builds a shipper for cfg.Shards shards. Complete must be
// set before the first Publish.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if cfg.Shards <= 0 {
		return nil, errors.New("replica: ShipperConfig.Shards must be positive")
	}
	cfg.fill()
	p := &Shipper{
		cfg:      cfg,
		shards:   make([]shipShard, cfg.Shards),
		doorbell: make(chan struct{}, 1),
	}
	return p, nil
}

// Shards reports the configured shard count.
func (p *Shipper) Shards() int { return len(p.shards) }

// SetComplete installs the deferred-completion callback (the server
// binds it at construction, after the shipper exists).
func (p *Shipper) SetComplete(fn func(tok any)) { p.cfg.Complete = fn }

// Publish enqueues one committed mutation for shipping, after the
// FASE's commit fence. Calls for one shard come in commit order (the
// server publishes under the shard's lock); tok is completed when
// the standby's receipt ack covers the record (or immediately when no
// standby is attached). op is OpSet or OpDel; val is the key's
// resulting value for sets.
func (p *Shipper) Publish(shard int, op byte, k0, k1, val uint64, tok any) {
	s := &p.shards[shard]
	s.mu.Lock()
	if p.killed.Load() {
		s.mu.Unlock()
		return // dying abruptly: tokens die with the server
	}
	att := p.attached.Load()
	if len(s.recs) >= p.cfg.Buffer {
		// Ring full: the standby (or its absence) has fallen too far
		// behind to buffer for. Shed the oldest durably-unconfirmed
		// history rather than stall the shard.
		s.mu.Unlock()
		if att {
			p.detach("buffer overflow")
			s.mu.Lock()
		} else {
			s.mu.Lock()
			s.lost = true
			s.recs = s.recs[:0]
		}
	}
	seq := s.nextSeq
	if seq == 0 {
		seq = 1
	}
	s.nextSeq = seq + 1
	s.recs = append(s.recs, pendRec{
		rec:   rec{shard: uint32(shard), seq: seq, op: op, k0: k0, k1: k1, val: val},
		tok:   tok,
		pubNS: time.Now().UnixNano(),
	})
	att = p.attached.Load()
	if !att {
		// Degraded (async) mode: complete now; the record stays buffered
		// so a standby attaching later can still catch up.
		s.recs[len(s.recs)-1].tok = nil
		s.mu.Unlock()
		p.degraded.Add(1)
		if tok != nil {
			p.cfg.Complete(tok)
		}
		return
	}
	s.mu.Unlock()
	select {
	case p.doorbell <- struct{}{}:
	default:
	}
}

// Record ops exposed to the server integration.
const (
	OpSet = recSet
	OpDel = recDel
)

// Serve accepts standby connections from l, one at a time, until Kill
// or Close. A second standby connecting while one is attached replaces
// it (the old stream is detached).
func (p *Shipper) Serve(l net.Listener) {
	p.mu.Lock()
	p.ln = l
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			if err := p.AttachConn(nc); err != nil {
				nc.Close()
			}
		}
	}()
}

// AttachConn adopts nc as the standby stream: it performs the HELLO
// handshake, schedules backfill from the standby's durable watermarks,
// and starts the sender and ack-reader goroutines.
func (p *Shipper) AttachConn(nc net.Conn) error {
	if p.killed.Load() {
		return errors.New("replica: shipper killed")
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	wm, err := readHello(nc, len(p.shards))
	if err != nil {
		return err
	}
	nc.SetReadDeadline(time.Time{})

	// Validate the watermarks against the buffered history and schedule
	// the resend cursors before publishing the stream.
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		base := s.durAck // everything <= durAck has been trimmed
		if len(s.recs) > 0 {
			base = s.recs[0].seq - 1
		} else if s.nextSeq > 0 {
			base = s.nextSeq - 1
		}
		if wm[i] < base {
			s.mu.Unlock()
			return fmt.Errorf("replica: standby shard %d watermark %d below buffered history (base %d): full resync required", i, wm[i], base)
		}
		s.sentSeq = wm[i]
		completed := s.trimLocked(wm[i], wm[i])
		s.mu.Unlock()
		for _, tok := range completed {
			p.cfg.Complete(tok)
		}
	}

	p.mu.Lock()
	if p.nc != nil {
		p.nc.Close()
	}
	p.nc = nc
	p.gen++
	gen := p.gen
	p.mu.Unlock()
	p.attached.Store(true)
	p.attaches.Add(1)

	p.wg.Add(2)
	go p.sendLoop(nc, gen)
	go p.ackLoop(nc, gen)
	return nil
}

// trimLocked completes tokens receipt-acked up to recv and drops
// records durably acked up to dur. Caller holds s.mu; completions run
// with it held — Complete is non-blocking by contract.
func (s *shipShard) trimLocked(recv, dur uint64) (completed []any) {
	for i := range s.recs {
		r := &s.recs[i]
		if r.seq <= recv && r.tok != nil {
			completed = append(completed, r.tok)
			r.tok = nil
		}
	}
	if recv > s.recvAck {
		s.recvAck = recv
	}
	if dur > s.durAck {
		s.durAck = dur
	}
	drop := 0
	for drop < len(s.recs) && s.recs[drop].seq <= s.durAck {
		drop++
	}
	if drop > 0 {
		s.recs = append(s.recs[:0], s.recs[drop:]...)
	}
	return completed
}

// sendLoop streams unsent records (and heartbeats) to the standby.
func (p *Shipper) sendLoop(nc net.Conn, gen uint64) {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.Heartbeat)
	defer tick.Stop()
	buf := make([]byte, 0, 64<<10)
	for {
		idle := false
		select {
		case <-p.doorbell:
		case <-tick.C:
			idle = true
		}
		if p.stale(gen) {
			return
		}
		sent := false
		for {
			buf = buf[:0]
			for i := range p.shards {
				s := &p.shards[i]
				s.mu.Lock()
				for s.sentSeq+1 < s.nextSeq && len(buf) < 60<<10 {
					// Find the pending entry for sentSeq+1; entries are
					// seq-ordered and contiguous from recs[0].
					want := s.sentSeq + 1
					if len(s.recs) == 0 || want < s.recs[0].seq {
						// Already durably acked (trim passed it): skip.
						s.sentSeq = want
						continue
					}
					idx := int(want - s.recs[0].seq)
					if idx >= len(s.recs) {
						break
					}
					buf = appendRecord(buf, s.recs[idx].rec)
					s.sentSeq = want
				}
				s.mu.Unlock()
			}
			if len(buf) == 0 {
				break
			}
			if _, err := nc.Write(buf); err != nil {
				p.detachGen(gen, "send error")
				return
			}
			p.shippedRecs.Add(uint64(len(buf) / (1 + recordSize)))
			p.shippedByte.Add(uint64(len(buf)))
			sent = true
		}
		if idle {
			if !sent {
				if _, err := nc.Write([]byte{frameHeart}); err != nil {
					p.detachGen(gen, "heartbeat error")
					return
				}
			}
			if p.ackOverdue() {
				p.detachGen(gen, "ack timeout")
				return
			}
		}
	}
}

// ackOverdue reports whether the oldest receipt-pending record has
// waited longer than AckTimeout.
func (p *Shipper) ackOverdue() bool {
	cut := time.Now().UnixNano() - p.cfg.AckTimeout.Nanoseconds()
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for j := range s.recs {
			if s.recs[j].tok != nil {
				if s.recs[j].pubNS < cut {
					s.mu.Unlock()
					return true
				}
				break
			}
		}
		s.mu.Unlock()
	}
	return false
}

// ackLoop consumes the standby's ACK frames, releasing deferred client
// completions and trimming durably-applied records.
func (p *Shipper) ackLoop(nc net.Conn, gen uint64) {
	defer p.wg.Done()
	var hdr [1 + ackSize]byte
	for {
		if _, err := io.ReadFull(nc, hdr[:1]); err != nil {
			p.detachGen(gen, "ack stream closed")
			return
		}
		if hdr[0] != frameAck {
			p.detachGen(gen, "bad frame from standby")
			return
		}
		if _, err := io.ReadFull(nc, hdr[1:]); err != nil {
			p.detachGen(gen, "ack stream closed")
			return
		}
		shard, recv, dur := decodeAck(hdr[1:])
		if int(shard) >= len(p.shards) {
			p.detachGen(gen, "ack for unknown shard")
			return
		}
		s := &p.shards[shard]
		s.mu.Lock()
		prevDur := s.durAck
		completed := s.trimLocked(recv, dur)
		newDur := s.durAck
		s.mu.Unlock()
		if newDur > prevDur {
			p.ackedRecs.Add(newDur - prevDur)
		}
		for _, tok := range completed {
			p.cfg.Complete(tok)
		}
	}
}

// stale reports whether gen is no longer the live stream generation.
func (p *Shipper) stale(gen uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen != gen
}

// detachGen detaches only if gen is still the live stream (so a dead
// stream's goroutines cannot detach its replacement).
func (p *Shipper) detachGen(gen uint64, reason string) {
	p.mu.Lock()
	if p.gen != gen {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.detach(reason)
}

// detach closes the standby stream and completes every pending token:
// the shipper degrades to async until the next attach.
func (p *Shipper) detach(string) {
	p.mu.Lock()
	if p.nc != nil {
		p.nc.Close()
		p.nc = nil
	}
	p.gen++
	p.mu.Unlock()
	p.attached.Store(false)
	p.detaches.Add(1)
	p.completeAll()
}

// completeAll releases every deferred completion (detach path: the
// client ack contract degrades to local-durability only).
func (p *Shipper) completeAll() {
	var toks []any
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for j := range s.recs {
			if s.recs[j].tok != nil {
				toks = append(toks, s.recs[j].tok)
				s.recs[j].tok = nil
			}
		}
		s.mu.Unlock()
	}
	for _, tok := range toks {
		p.degraded.Add(1)
		p.cfg.Complete(tok)
	}
}

// Kill stops the shipper abruptly — the primary is dying as a crashed
// process would, so pending completions are NOT released (their slots
// die with the server) and nothing further is shipped.
func (p *Shipper) Kill() {
	p.killed.Store(true)
	p.attached.Store(false)
	p.mu.Lock()
	if p.nc != nil {
		p.nc.Close()
		p.nc = nil
	}
	if p.ln != nil {
		p.ln.Close()
		p.ln = nil
	}
	p.gen++
	p.mu.Unlock()
}

// Close stops the shipper gracefully: it waits up to AckTimeout for
// in-flight receipt acks, then completes anything still pending and
// closes the stream and listener.
func (p *Shipper) Close() {
	deadline := time.Now().Add(p.cfg.AckTimeout)
	for p.attached.Load() && p.pendingToks() > 0 && time.Now().Before(deadline) {
		select {
		case p.doorbell <- struct{}{}:
		default:
		}
		time.Sleep(time.Millisecond)
	}
	p.killed.Store(true)
	p.attached.Store(false)
	p.mu.Lock()
	if p.nc != nil {
		p.nc.Close()
		p.nc = nil
	}
	if p.ln != nil {
		p.ln.Close()
		p.ln = nil
	}
	p.gen++
	p.mu.Unlock()
	p.completeAll()
	p.wg.Wait()
}

// pendingToks counts records whose client completion is still deferred.
func (p *Shipper) pendingToks() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for j := range s.recs {
			if s.recs[j].tok != nil {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Attached reports whether a standby stream is live.
func (p *Shipper) Attached() bool { return p.attached.Load() }

// Killed reports whether the shipper was torn down (Kill or Close). A
// standby dial function can use it to fail fast instead of handing the
// standby a stream that dies on first read.
func (p *Shipper) Killed() bool { return p.killed.Load() }

// ReplSnapshot fills dst with the primary-side replication gauges — the
// metrics.ReplSource contract.
func (p *Shipper) ReplSnapshot(dst *metrics.ReplStats) {
	dst.Role = metrics.ReplRolePrimary
	dst.Attached = 0
	if p.attached.Load() {
		dst.Attached = 1
	}
	dst.Records = p.shippedRecs.Load()
	dst.Bytes = p.shippedByte.Load()
	dst.AckedRecs = p.ackedRecs.Load()
	dst.Degraded = p.degraded.Load()
	dst.Reconnects = p.attaches.Load()
	dst.Failovers = 0
	var lagRecs uint64
	oldest := int64(0)
	now := time.Now().UnixNano()
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		if s.nextSeq > 0 {
			lagRecs += (s.nextSeq - 1) - s.durAck
		}
		for j := range s.recs {
			if s.recs[j].tok != nil {
				if age := now - s.recs[j].pubNS; age > oldest {
					oldest = age
				}
				break
			}
		}
		s.mu.Unlock()
	}
	dst.LagRecs = lagRecs
	dst.LagBytes = lagRecs * (1 + recordSize)
	dst.LagNS = oldest
}

package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/kv/redis"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/replica"
	"github.com/ido-nvm/ido/internal/server"
)

// deployment is the served system's configuration: idoserve's settings
// plus the paper cost model, group commit, and the shard/bucket layout.
type deployment struct {
	deviceMiB  int
	flushNS    int
	fenceNS    int
	ntstoreNS  int
	gcWindowNS int
	shards     int
	buckets    int
}

// Every workload is a closed loop of conns connections with depth
// requests in flight on each: memaslap's shape.
const (
	conns = 2
	depth = 8
)

func (d *deployment) devConfig(tr *obs.Tracer) nvm.Config {
	return nvm.Config{
		Size:      d.deviceMiB << 20,
		FlushNS:   d.flushNS,
		FenceNS:   d.fenceNS,
		NTStoreNS: d.ntstoreNS,
		Tracer:    tr,
		GroupCommit: nvm.GroupCommitConfig{
			Enabled: true, WindowNS: d.gcWindowNS},
	}
}

// node is one machine: a device, region, iDO runtime, and store.
type node struct {
	reg   *region.Region
	lm    *locks.Manager
	rt    persist.Runtime
	store server.Store
}

func newNode(d *deployment, proto server.Proto, tr *obs.Tracer) (*node, error) {
	n := &node{}
	n.reg = region.Create(d.deviceMiB<<20, d.devConfig(tr))
	n.lm = locks.NewManager(n.reg)
	n.rt = core.New(core.DefaultConfig())
	if err := n.rt.Attach(n.reg, n.lm); err != nil {
		return nil, err
	}
	var err error
	if proto == server.ProtoMemcache {
		n.store, err = server.NewMcStore(&memcache.Env{Reg: n.reg, LM: n.lm}, d.shards, d.buckets)
	} else {
		n.store, err = server.NewRespStore(&redis.Env{Reg: n.reg}, d.shards, d.buckets)
	}
	return n, err
}

// keyWords maps global key index k to its store key words and shard;
// the 8-byte wire key is valid and encodes identically in both
// protocols.
func keyWords(st server.Store, k uint64) (k0, k1 uint64, shard int) {
	var kb [8]byte
	k0, k1, _ = server.McKeyWords(loadgen.AppendKey(kb[:0], k))
	return k0, k1, st.ShardOf(k0, k1)
}

// world is the served system under test: a primary node behind a
// server, optionally a hot standby on its own device, and the clients
// that drive it.
type world struct {
	wl      *workload
	d       *deployment
	tr      *obs.Tracer
	primary *node
	srv     *server.Server
	spare   persist.Thread // the benchmark's own thread on the primary

	ship    *replica.Shipper
	standby *node
	sb      *replica.Standby
	sbDone  chan error

	clients []*client

	// wrap, when set, interposes on every client connection (tests use
	// it to corrupt replies).
	wrap func(net.Conn) net.Conn
}

// build sets up a complete world: device(s), runtime, store, standby,
// server, and the prefill. Everything it does counts as set-up time.
func build(wl *workload, d *deployment, streams [][]uint32, tr *obs.Tracer, spans *spanLog, parent int32) (*world, error) {
	w := &world{wl: wl, d: d, tr: tr}
	sp := spans.open(spanSetupDevice, parent)
	var err error
	if w.primary, err = newNode(d, wl.proto, tr); err != nil {
		return nil, err
	}
	spans.close(sp)
	sp = spans.open(spanSetupStore, parent)
	if w.spare, err = w.primary.rt.NewThread(); err != nil {
		return nil, err
	}
	cfg := server.Config{Proto: wl.proto, MaxItems: wl.maxItems}
	if wl.repl {
		if w.ship, err = replica.NewShipper(replica.ShipperConfig{Shards: w.primary.store.NumShards()}); err != nil {
			return nil, err
		}
		cfg.Repl = w.ship
	}
	if w.srv, err = server.New(w.primary.rt, w.primary.store, cfg, tr); err != nil {
		return nil, err
	}
	spans.close(sp)
	if wl.repl {
		sp = spans.open(spanSetupStandby, parent)
		if err := w.startStandby(); err != nil {
			w.close()
			return nil, err
		}
		spans.close(sp)
	}
	for i := 0; i < conns; i++ {
		w.clients = append(w.clients, newClient(wl, i, streams[i]))
	}
	sp = spans.open(spanSetupPrefill, parent)
	if err := w.prefill(); err != nil {
		w.close()
		return nil, err
	}
	spans.close(sp)
	return w, nil
}

// startStandby builds the standby node and attaches it to the shipper
// over an in-memory pipe, waiting until the stream is live.
func (w *world) startStandby() error {
	var err error
	if w.standby, err = newNode(w.d, w.wl.proto, nil); err != nil {
		return err
	}
	if w.sb, err = replica.NewStandby(replica.StandbyConfig{
		Store: w.standby.store, RT: w.standby.rt, Reg: w.standby.reg,
	}); err != nil {
		return err
	}
	ship := w.ship
	w.sbDone = make(chan error, 1)
	go func() {
		w.sbDone <- w.sb.Run(func() (net.Conn, error) {
			if ship.Killed() {
				return nil, errors.New("primary closed")
			}
			c, s := loadgen.MemPipe(1 << 16)
			go func() {
				if err := ship.AttachConn(s); err != nil {
					s.Close()
				}
			}()
			return c, nil
		})
	}()
	for deadline := time.Now().Add(10 * time.Second); !ship.Attached(); {
		if time.Now().After(deadline) {
			return errors.New("standby never attached")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// prefill stores the workload's initial keys: directly on the spare
// thread, or through the server when a standby must receive them.
func (w *world) prefill() error {
	if w.wl.repl {
		saved := make([][]uint32, len(w.clients))
		for i, c := range w.clients {
			saved[i] = c.stream
			c.stream = nil
			for j := range c.vals {
				if c.vals[j] != 0 {
					c.stream = append(c.stream, packOp(opSet, uint32(j)))
				}
			}
		}
		// The SETs store fresh values, which encode records in the
		// model in place of the prefill values.
		err := w.runClients(w.clients, depth, 1<<62, len(w.clients[0].stream))
		for i, c := range w.clients {
			c.stream, c.pos = saved[i], 0
		}
		if err != nil {
			return err
		}
		return w.failures("prefill")
	}
	st, th := w.primary.store, w.spare
	for k := uint64(0); k < w.wl.keys; k++ {
		if !w.wl.prefilled(k) {
			continue
		}
		k0, k1, sh := keyWords(st, k)
		v := prefillVal(k)
		th.Exec(func() { st.Set(th, sh, k0, k1, v) })
	}
	return nil
}

// dial opens an in-memory connection to the server.
func (w *world) dial() (net.Conn, error) {
	client, srvEnd := loadgen.MemPipe(64 << 10)
	if err := w.srv.ServeConn(srvEnd); err != nil {
		return nil, err
	}
	if w.wrap != nil {
		return w.wrap(client), nil
	}
	return client, nil
}

// runClients drives cs concurrently, each on its own connection, until
// until (or limit ops each) and returns the first transport error.
func (w *world) runClients(cs []*client, depth int, until int64, limit int) error {
	errc := make(chan error, len(cs))
	var first error
	started := 0
	for _, c := range cs {
		nc, err := w.dial()
		if err != nil {
			first = err
			break
		}
		started++
		go func(c *client, nc net.Conn) {
			err := c.drive(nc, depth, until, limit)
			nc.Close()
			errc <- err
		}(c, nc)
	}
	for ; started > 0; started-- {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// genStreams draws every connection's op stream for a seed; the same
// seed gives the same streams.
func genStreams(wl *workload, seed int64) [][]uint32 {
	out := make([][]uint32, conns)
	for i := range out {
		out[i] = wl.genStream(seed, i, wl.keys/conns, streamLen)
	}
	return out
}

// failures turns any failed request so far into an error (used where a
// failure means the world itself is unusable, such as the prefill).
func (w *world) failures(phase string) error {
	var s driveStats
	for _, c := range w.clients {
		s.add(c.st)
	}
	if n := s.failed(); n > 0 {
		logFails(phase, w.clients)
		return fmt.Errorf("%s: %d of %d requests failed", phase, n, s.attempted)
	}
	return nil
}

// close stops the standby (so it never promotes), then the server.
func (w *world) close() {
	if w.sb != nil {
		w.sb.Stop()
		<-w.sbDone
		w.sb = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}
